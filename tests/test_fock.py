"""Fock-space core: sparse states, inner products, partial trace."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogofisher import (
    BudgetError,
    ModeLayout,
    ModeSubset,
    StateVector,
    average_particle_number,
    inner_product,
    partial_trace,
)

from bogofisher.fock import PRUNE_EPS, _unique_slots

from helpers import random_state


def test_inner_product_orthonormality():
    layout = ModeLayout(1, 4)
    vac = StateVector.vacuum(layout)
    one = StateVector.from_occupation(layout, [1])
    assert inner_product(vac, vac) == pytest.approx(1.0)
    assert inner_product(one, vac) == 0.0


def test_inner_product_self_norm():
    layout = ModeLayout(1, 4)
    psi = StateVector(layout, {(0,): 1 / math.sqrt(2), (2,): 1j / math.sqrt(2)})
    assert inner_product(psi, psi) == pytest.approx(1.0)


def test_inner_product_layout_mismatch():
    a = StateVector.vacuum(ModeLayout(1, 4))
    b = StateVector.vacuum(ModeLayout(1, 5))
    with pytest.raises(ValueError):
        inner_product(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inner_product_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    layout = ModeLayout(2, 5)
    a = random_state(rng, layout, terms=4)
    b = random_state(rng, layout, terms=4)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_partial_trace_product_state_is_rank_one():
    layout = ModeLayout(2, 4)
    psi = StateVector(
        layout, {(0, 0): 1 / math.sqrt(2), (2, 0): 1j / math.sqrt(2)}
    )
    rho = partial_trace(psi, ModeSubset.of([0]))
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(eigs[:-1] < 1e-10)
    assert rho.trace == pytest.approx(1.0)


def test_partial_trace_schmidt_pair():
    layout = ModeLayout(2, 2)
    psi = StateVector(layout, {(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)})
    rho = partial_trace(psi, ModeSubset.of([0]))
    expected = np.diag([0.5, 0.5, 0.0])
    assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_partial_trace_trace_equals_norm():
    rng = np.random.default_rng(3)
    layout = ModeLayout(3, 3)
    psi = random_state(rng, layout, terms=5).scaled(0.7)
    rho = partial_trace(psi, ModeSubset.of([0, 2]))
    assert rho.trace == pytest.approx(psi.norm_squared())


def test_average_particle_number_examples():
    layout = ModeLayout(2, 8)
    assert average_particle_number(StateVector.vacuum(layout)) == 0.0
    assert average_particle_number(
        StateVector.from_occupation(layout, [3, 2])
    ) == pytest.approx(5.0)
    n = 4
    psi = StateVector(
        layout,
        {
            (n, n): 1 / math.sqrt(3),
            (n, n - 2): 1 / math.sqrt(3),
            (n, n + 2): 1 / math.sqrt(3),
        },
    )
    assert average_particle_number(psi) == pytest.approx(2 * n)


def test_average_particle_number_requires_normalization():
    layout = ModeLayout(1, 3)
    with pytest.raises(ValueError):
        average_particle_number(StateVector(layout, {(1,): 0.5}))


@settings(max_examples=20, deadline=None)
@given(st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1))
def test_average_particle_number_global_phase_invariant(phase, seed):
    rng = np.random.default_rng(seed)
    layout = ModeLayout(2, 5)
    psi = random_state(rng, layout, terms=3)
    rotated = psi.scaled(complex(math.cos(phase), math.sin(phase)))
    assert average_particle_number(rotated) == pytest.approx(
        average_particle_number(psi)
    )


def test_layout_budget_enforced():
    # 6^10 basis states: the sparse route runs, and every dense realization
    # (which reads basis_size) is refused.
    layout = ModeLayout(10, 5)
    state = StateVector.from_occupation(layout, [1] + [0] * 9)
    far = StateVector.from_occupation(layout, [1] + [0] * 8 + [1])
    assert state.add(far).support() == ((1,) + (0,) * 9, (1,) + (0,) * 8 + (1,))
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        state.to_dense()
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        partial_trace(state, ModeSubset.of([0]))
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        StateVector.from_dense(layout, np.zeros(6))
    # Ranks plus a ladder step must fit int64: up to 2^62 basis states.
    top = ModeLayout(62, 1)
    assert top.ranks_of(np.ones((1, 62), dtype=np.int64)).tolist() == [2**62 - 1]
    for modes, cutoff in [(63, 1), (40, 2), (1, 2**62)]:
        with pytest.raises(BudgetError, match="2\\^62"):
            ModeLayout(modes, cutoff)
    assert len(StateVector.vacuum(ModeLayout(1000, 0))) == 1


def test_layout_indexing_roundtrip():
    layout = ModeLayout(3, 3)
    basis = np.array(list(itertools.product(range(4), repeat=3)))
    assert layout.ranks_of(basis).tolist() == list(range(len(basis)))
    assert np.array_equal(layout.occupations_of(np.arange(len(basis))), basis)


def test_state_prunes_tiny_amplitudes():
    layout = ModeLayout(1, 2)
    state = StateVector(layout, {(0,): 1.0, (1,): 1e-16})
    assert len(state) == 1


def test_mode_subset_validation():
    with pytest.raises(ValueError):
        ModeSubset.of([])
    keep = ModeSubset.of([2, 0, 2])
    assert keep.indices == (0, 2)
    assert keep.complement(4) == (1, 3)
    with pytest.raises(ValueError):
        keep.validate_for(ModeLayout(2, 3))


@pytest.mark.parametrize(
    "value", [float("nan"), complex(0.0, float("nan")), float("inf"), complex(1.0, -float("inf"))]
)
def test_state_vector_refuses_non_finite_amplitude(value):
    layout = ModeLayout(2, 3)
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(layout, {(0, 0): 1.0, (1, 0): value})
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(layout, {(1, 0): value}, prune=0.0)


@pytest.mark.parametrize(
    "occ",
    [(-1, 0), (0, 4), (1,), (1, 0, 0)],
    ids=["negative", "above_cutoff", "too_short", "too_long"],
)
def test_state_vector_refuses_occupation_outside_layout(occ):
    layout = ModeLayout(2, 3)
    with pytest.raises(ValueError, match="outside layout"):
        StateVector(layout, {(0, 0): 0.5, occ: 0.5})
    with pytest.raises(ValueError, match="outside layout"):
        StateVector(layout, {occ: 1.0})


def test_state_vector_prunes_at_prune_eps():
    layout = ModeLayout(2, 3)
    state = StateVector(
        layout,
        {(0, 0): 1.0, (1, 0): PRUNE_EPS, (0, 1): 1j * PRUNE_EPS, (1, 1): 2 * PRUNE_EPS},
    )
    assert state.support() == ((0, 0), (1, 1))
    assert len(StateVector(layout, {(1, 0): PRUNE_EPS}, prune=0.0)) == 1
    assert len(StateVector(layout, {(1, 0): 0.0}, prune=0.0)) == 0
    dense = np.zeros(layout.basis_size, dtype=complex)
    dense[[0, 1, 2]] = [1.0, PRUNE_EPS, 2 * PRUNE_EPS]
    assert StateVector.from_dense(layout, dense).support() == ((0, 0), (0, 2))


def test_state_vector_arrays_are_sorted_ranks_and_amplitudes():
    layout = ModeLayout(2, 3)
    state = StateVector(layout, {(2, 1): 3.0, (0, 1): 1.0, (1, 0): 2j})
    assert state.ranks.tolist() == [1, 4, 9]
    assert state.amplitudes.tolist() == [1.0, 2j, 3.0]
    assert state.items() == [((0, 1), 1.0), ((1, 0), 2j), ((2, 1), 3.0)]
    assert state.amplitude((1, 0)) == 2j
    assert state.amplitude((1, 1)) == 0.0
    assert state.amplitude((9, 0)) == 0.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0
    assert np.array_equal(StateVector.from_dense(layout, state.to_dense()).ranks, state.ranks)


@pytest.mark.parametrize(
    "values",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, 2**62, dtype=np.int64),
        np.random.default_rng(61).integers(0, 2**62, size=200, endpoint=True),
        # Few distinct keys among many entries, so most runs are long.
        np.random.default_rng(62).integers(0, 2**62, size=12)[
            np.random.default_rng(63).integers(0, 12, size=500)
        ],
    ],
    ids=["empty", "one", "all-equal", "random", "repeated"],
)
def test_unique_slots_equals_numpy_unique(values):
    distinct, slots = _unique_slots(values)
    expected, inverse = np.unique(values, return_inverse=True)
    np.testing.assert_array_equal(distinct, expected)
    np.testing.assert_array_equal(slots, inverse)
    assert distinct.dtype == values.dtype
