"""The oracle's Taylor stencil against ``scipy.sparse.linalg.expm_multiply``.

``oracle._taylor_stencil`` is the oracle's one evolution: exp(theta A) v
at theta = h/2 and h, and for two-sided stencils also at -h and -h/2, on
an operator prepared once on a sector of the basis and multiplied in
numpy (``oracle._product``).  Given -iH on the same sector from the COO
reference, up to t||A||_1 = 63.4 its + side must return the bits of
``expm_multiply`` over [0, h] at 3 points on A (the interval algorithm
of Al-Mohy & Higham, 2011, algorithm 5.2, for one vector), and its
- side those on -A; above that its Taylor step is chosen from ||A||_1
alone, which is more conservative than scipy's estimates of ||A^p||,
and its error must stay within u * t||A||_1 of the exact propagation
(u = 2^-53).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.sparse.linalg._expm_multiply import (
    LazyOperatorNormInfo,
    _fragment_3_1,
    _theta,
)

from bogofisher import GeneratorSpec, ModeLayout, StateVector, oracle

from helpers import box_sector, coo_hamiltonian, random_generator

_UNIT_ROUNDOFF = 2.0**-53


def _operator_and_vector(seed: int, modes: int = 3, cutoff: int = 4, whole: bool = False):
    """The oracle's operator, the COO reference's -iH and a random unit vector.

    On the whole layout with ``whole``; otherwise the sector cycles with
    the seed through sectors of one parity and of both, with N_max at or
    below the largest total.
    """
    rng = np.random.default_rng(seed)
    gen, layout = random_generator(rng, modes, 0.7), ModeLayout(modes, cutoff)
    parity = [(0, 1), (0,), (1,)][seed % 3]
    n_max = modes * cutoff - seed % 5
    sector = box_sector(layout) if whole else (n_max - (n_max % 2 not in parity), parity)
    op = oracle._prepared(gen, layout, *sector)
    dim = oracle._sector(layout, *sector).size
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return op, coo_hamiltonian(gen, layout, sector).matrix, v / np.linalg.norm(v)


def _stencil_reference(A, v: np.ndarray, h: float) -> np.ndarray:
    """The rows -h, -h/2, h/2, h from ``expm_multiply`` over [0, h] on A and on -A."""
    plus = expm_multiply(A, v, start=0.0, stop=h, num=3, endpoint=True)
    minus = expm_multiply(-A, v, start=0.0, stop=h, num=3, endpoint=True)
    return np.stack((minus[2], minus[1], plus[1], plus[2]))


def _assert_stencil_bits(op, A, v: np.ndarray, h: float) -> None:
    """Both sides, and the + side alone, keep the bits of ``expm_multiply``."""
    expected = _stencil_reference(A, v, h)
    assert oracle._taylor_stencil(op, v, h, True).tobytes() == expected.tobytes()
    assert oracle._taylor_stencil(op, v, h, False).tobytes() == expected[2:].tobytes()


_EXACT_NORMS = [1e-3, 0.1, 1.0, 10.0, 20.0, 40.0, 63.0]


def test_exact_cases_cover_both_stencil_branches():
    # One step over [0, h] (the shared terms) and two steps per side.
    assert {oracle._taylor_degree(norm)[1] > 1 for norm in _EXACT_NORMS} == {False, True}


@pytest.mark.parametrize("span_norm", _EXACT_NORMS)
def test_stencil_is_bit_identical_to_expm_multiply_on_both_signs(span_norm):
    op, A, v = _operator_and_vector(int(span_norm * 1000) + 11)
    _assert_stencil_bits(op, A, v, span_norm / op.shifted_norm)


@pytest.mark.parametrize("start", ["zero", "negative"])
@pytest.mark.parametrize("draw", [2, 3, 5, 7])
@pytest.mark.parametrize("span_norm", _EXACT_NORMS)
def test_sweep_is_bit_identical_to_expm_multiply(span_norm, draw, start):
    # A stencil starting at theta = 0 is the + side alone; one starting at
    # -h has both sides.  ``draw`` picks the operator, sector and vector.
    op, A, v = _operator_and_vector(int(span_norm * 1000) + draw)
    h = span_norm / op.shifted_norm
    expected = _stencil_reference(A, v, h)
    if start == "zero":
        assert oracle._taylor_stencil(op, v, h, False).tobytes() == expected[2:].tobytes()
    else:
        assert oracle._taylor_stencil(op, v, h, True).tobytes() == expected.tobytes()


@pytest.mark.parametrize("draw", [2, 3, 5])
@pytest.mark.parametrize("span_norm", [70.0, 100.0, 400.0, 1000.0])
def test_sweep_past_exact_range_is_accurate(span_norm, draw):
    # On the whole layout: on some sectors scipy's own error passes 4 u t||A||_1.
    op, A, v = _operator_and_vector(int(span_norm) + draw, whole=True)
    h = span_norm / op.shifted_norm
    # exp(-i theta H) v in the eigenbasis of the Hermitian H = iA.
    energies, basis = np.linalg.eigh(1j * A.toarray())
    coefficients = basis.conj().T @ v
    thetas = (-h, -h / 2.0, h / 2.0, h)
    exact = np.array([basis @ (np.exp(-1j * t * energies) * coefficients) for t in thetas])
    ours = oracle._taylor_stencil(op, v, h, True)
    # Past t||A||_1 = 63.4, expm_multiply picks its step from onenormest,
    # which draws from numpy's global generator: seed it, then restore it.
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        theirs = _stencil_reference(A, v, h)
    finally:
        np.random.set_state(saved)
    # Both meet the backward-error tolerance u, so they agree to a few
    # u * t||A||_1; the kernel's more conservative step keeps it within one.
    assert np.max(np.abs(ours - exact)) <= _UNIT_ROUNDOFF * span_norm
    assert np.max(np.abs(ours - theirs)) <= 4 * _UNIT_ROUNDOFF * span_norm
    assert oracle._taylor_stencil(op, v, h, False).tobytes() == ours[2:].tobytes()


def test_descending_sweep_returns_the_ascending_rows_reversed():
    # The - side, from theta = 0 down to -h, is the + side on -A, reversed.
    rng = np.random.default_rng(8)
    gen = random_generator(rng, 2, 0.7)
    state = StateVector.from_occupation(ModeLayout(2, 9), [1, 1])
    op, _, _, v0 = oracle._placed(gen, state)
    for span_norm in (1e-3, 1.0, 40.0, 400.0):
        h = span_norm / op.shifted_norm
        ascending = oracle._taylor_stencil(oracle._negated(op), v0, h, False)
        descending = oracle._taylor_stencil(op, v0, h, True)[:2]
        assert descending.tobytes() == ascending[::-1].tobytes()


def test_zero_operator_sweep_keeps_the_vector():
    zero = np.zeros((2, 2))
    gen, layout = GeneratorSpec(zero, zero), ModeLayout(2, 3)
    op = oracle._prepared(gen, layout, *box_sector(layout))
    A = coo_hamiltonian(gen, layout).matrix
    assert op.shifted_norm == 0.0
    assert oracle._taylor_degree(0.0) == (0, 1)
    rng = np.random.default_rng(3)
    v = rng.normal(size=layout.basis_size) + 1j * rng.normal(size=layout.basis_size)
    _assert_stencil_bits(op, A, v, 1.0)
    assert np.array_equal(oracle._taylor_stencil(op, v, 1.0, True), np.tile(v, (4, 1)))


def test_theta_table_is_scipys():
    assert oracle._THETA == _theta
    assert list(oracle._THETA) == list(_theta)


def test_taylor_degree_is_scipys_under_condition_3_13():
    # Condition (3.13) at m_max = 55 and ell = 2 for one vector: 352 * 9.9 / 55.
    for norm in np.geomspace(1e-12, 63.36, 400):
        expected = _fragment_3_1(LazyOperatorNormInfo(None, A_1_norm=norm), 1, _UNIT_ROUNDOFF)
        assert oracle._taylor_degree(norm) == expected


@st.composite
def _stencil_cases(draw):
    """A random operator with its COO -iH, a vector (some entries +0 or -0) and a step."""
    seed = draw(st.integers(0, 2**32 - 1))
    modes = draw(st.integers(1, 3))
    cutoff = draw(st.integers(2, 6))
    parity = draw(st.sampled_from([(0, 1), (0,), (1,)]))
    n_max = draw(st.integers(parity[0], modes * cutoff))
    n_max -= n_max % 2 not in parity
    rng = np.random.default_rng(seed)
    gen = random_generator(rng, modes, draw(st.floats(0.05, 3.0)))
    layout = ModeLayout(modes, cutoff)
    op = oracle._prepared(gen, layout, n_max, parity)
    A = coo_hamiltonian(gen, layout, (n_max, parity)).matrix
    dim = oracle._sector(layout, n_max, parity).size
    # A sparse vector leaves exact zeros in the first terms K_p; where its
    # zeros are -0 they must still sum as on -A.
    support = rng.random(dim) < draw(st.sampled_from([0.1, 0.8, 1.0]))
    zero = complex(-0.0, -0.0) if draw(st.booleans()) else 0j
    v = np.where(support, rng.normal(size=dim) + 1j * rng.normal(size=dim), zero)
    span_norm = draw(st.floats(1e-8, 63.0))
    return op, A, v, span_norm / max(op.shifted_norm, 1.0)


@settings(max_examples=500, deadline=None)
@given(_stencil_cases())
def test_stencil_keeps_the_bits_of_the_sweeps_on_a_and_minus_a(case):
    op, A, v, h = case
    if op.shifted_norm != 0:
        _assert_stencil_bits(op, A, v, h)
        return
    # No Taylor term is added to v, so a -0 of v stays -0 in the rows;
    # expm_multiply first steps to theta = 0, adding 0 * A v, which makes
    # it +0.  The values agree.
    expected = _stencil_reference(A, v, h)
    assert np.array_equal(oracle._taylor_stencil(op, v, h, True), expected)
    assert np.array_equal(oracle._taylor_stencil(op, v, h, False), expected[2:])
