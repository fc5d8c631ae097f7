"""First-order transformation: generator construction, golden expansions,
finite-difference equivalence against the exact propagator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogofisher import (
    BogoliubovFirstOrder,
    BudgetError,
    GeneratorK,
    ModeLayout,
    StateVector,
    UnitarityError,
    apply_generator,
    beam_splitter,
    build_generator,
    derivative_states,
    generator_from_model,
    inner_product,
    load_model,
    single_mode_squeezer,
    transform_first_order,
    two_mode_squeezer,
    validity_check,
)

from helpers import (
    dense_generator_matrix,
    free_evolved,
    golden_single_mode,
    golden_two_mode,
    golden_vacuum,
    random_model,
    random_state,
    rephased,
    state_distance,
)


def test_generator_squeezer_on_vacuum():
    gen = build_generator(single_mode_squeezer(0, 1))
    out = apply_generator(gen, StateVector.vacuum(ModeLayout(1, 4)))
    assert out.items() == [((2,), pytest.approx(-1.0 / math.sqrt(2)))]


def test_generator_beam_splitter_shifts_one_excitation():
    gen = build_generator(beam_splitter(0, 1, 2))
    out = apply_generator(gen, StateVector.from_occupation(ModeLayout(2, 3), [1, 0]))
    assert len(out) == 1
    assert abs(out.amplitude([0, 1])) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "number, pair, message",
    [
        # The oracle places K's coefficients by their flat indices in square blocks.
        (np.zeros((2, 2)), np.zeros((3, 3)), "square matrices of equal dimension"),
        (np.zeros((2, 3)), np.zeros((2, 3)), "square matrices of equal dimension"),
        (0.0, 0.0, "square matrices of equal dimension"),
        # A generator built from no model is refused, not propagated as NaN.
        (np.diag([math.nan, 1.0]), np.zeros((2, 2)), "must be finite"),
        (np.zeros((2, 2)), np.diag([0.0, math.inf]), "must be finite"),
    ],
)
def test_generator_blocks_must_be_finite_square_and_equal(number, pair, message):
    with pytest.raises(ValueError, match=message):
        GeneratorK(number, pair)


def test_generator_zero_model_gives_zero():
    model = BogoliubovFirstOrder(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2)))
    layout = ModeLayout(2, 4)
    pair = transform_first_order(model, StateVector.from_occupation(layout, [1, 1]))
    assert len(pair.psi1) == 0


def test_generator_dense_antihermitian():
    rng = np.random.default_rng(21)
    layout = ModeLayout(3, 5)
    for _ in range(5):
        model = random_model(rng, 3)
        K = dense_generator_matrix(build_generator(model), layout)
        assert np.max(np.abs(K + K.conj().T)) < 1e-10


def test_generator_dense_antihermitian_with_phases():
    rng = np.random.default_rng(22)
    layout = ModeLayout(3, 5)
    model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
    K = dense_generator_matrix(build_generator(model), layout)
    assert np.max(np.abs(K + K.conj().T)) < 1e-10


def test_transform_vacuum_under_squeezer():
    model = single_mode_squeezer(0, 1)
    pair = transform_first_order(model, StateVector.vacuum(ModeLayout(1, 6)))
    assert pair.psi0.items() == [((0,), pytest.approx(1.0))]
    assert pair.psi1.items() == [((2,), pytest.approx(-1.0 / math.sqrt(2)))]


def test_transform_fock_under_squeezer_two_terms():
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 10)
    for n in (2, 3, 4):
        pair = transform_first_order(
            model, StateVector.from_occupation(layout, [n])
        )
        assert len(pair.psi1) == 2
        assert pair.psi1.amplitude([n - 2]) == pytest.approx(
            0.5 * math.sqrt(n * (n - 1))
        )
        assert pair.psi1.amplitude([n + 2]) == pytest.approx(
            -0.5 * math.sqrt((n + 1) * (n + 2))
        )


def test_transform_pair_under_two_mode_squeezer():
    model = two_mode_squeezer(0, 1, 2)
    pair = transform_first_order(
        model, StateVector.from_occupation(ModeLayout(2, 4), [1, 1])
    )
    assert pair.psi1.amplitude([0, 0]) == pytest.approx(1.0)
    assert pair.psi1.amplitude([2, 2]) == pytest.approx(-2.0)
    assert len(pair.psi1) == 2


def test_golden_vacuum_agreement():
    rng = np.random.default_rng(31)
    layout = ModeLayout(3, 4)
    for _ in range(4):
        model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
        pair = transform_first_order(model, StateVector.vacuum(layout))
        psi0_ref, psi1_ref = golden_vacuum(model, layout)
        assert state_distance(free_evolved(model, pair.psi0), psi0_ref) < 1e-12
        assert state_distance(free_evolved(model, pair.psi1), psi1_ref) < 1e-12


def test_golden_single_mode_agreement():
    rng = np.random.default_rng(32)
    model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
    layout = ModeLayout(3, 8)
    for n in range(0, 7):
        state = StateVector.from_occupation(layout, [0, n, 0])
        pair = transform_first_order(model, state)
        psi0_ref, psi1_ref = golden_single_mode(model, n, 1, layout)
        assert state_distance(free_evolved(model, pair.psi0), psi0_ref) < 1e-12 * max(1, n)
        assert state_distance(free_evolved(model, pair.psi1), psi1_ref) < 1e-11


def test_golden_two_mode_agreement():
    rng = np.random.default_rng(33)
    model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
    layout = ModeLayout(3, 7)
    for n in range(0, 5):
        for m in range(0, 5):
            state = StateVector.from_occupation(layout, [n, 0, m])
            pair = transform_first_order(model, state)
            psi0_ref, psi1_ref = golden_two_mode(model, n, 0, m, 2, layout)
            assert state_distance(free_evolved(model, pair.psi0), psi0_ref) < 1e-11
            assert state_distance(free_evolved(model, pair.psi1), psi1_ref) < 1e-11


def test_oracle_equivalence_builtin_models():
    layout2 = ModeLayout(2, 9)
    cases = [
        (single_mode_squeezer(0, 2), (3, 0)),
        (two_mode_squeezer(0, 1, 2), (2, 1)),
        (beam_splitter(0, 1, 2), (2, 3)),
    ]
    for model, occ in cases:
        state = StateVector.from_occupation(layout2, occ)
        pair = transform_first_order(model, state)
        numeric = derivative_states(generator_from_model(model), state, dtheta=1e-4)
        assert state_distance(pair.psi1, numeric.psi1) < 5e-7


def test_oracle_equivalence_random_models():
    # The oracle propagates exp(theta K) and the first-order route leaves
    # out U0, so both psi1 are K psi, whatever the phases G.
    rng = np.random.default_rng(34)
    phase_rng = np.random.default_rng(134)
    layout = ModeLayout(3, 9)
    for _ in range(3):
        model = random_model(rng, 3)
        state = random_state(rng, layout, terms=3, max_occ=3)
        for phased in (model, rephased(model, phase_rng.uniform(-np.pi, np.pi, 3))):
            pair = transform_first_order(phased, state)
            numeric = derivative_states(generator_from_model(phased), state, dtheta=1e-4)
            assert state_distance(pair.psi1, numeric.psi1) < 5e-7


def test_transform_returns_input_and_generator_image():
    # U0 is left out: psi0 is the input itself and psi1 is K psi, bit for
    # bit, on a model whose free-evolution phases are not trivial.
    rng = np.random.default_rng(37)
    model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
    assert np.all(model.G != 1.0)
    state = random_state(rng, ModeLayout(3, 6), terms=4, max_occ=4)
    pair = transform_first_order(model, state)
    expected = apply_generator(build_generator(model), state)
    np.testing.assert_array_equal(pair.psi0.ranks, state.ranks)
    assert pair.psi0.amplitudes.tobytes() == state.amplitudes.tobytes()
    np.testing.assert_array_equal(pair.psi1.ranks, expected.ranks)
    assert pair.psi1.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_linearity():
    rng = np.random.default_rng(35)
    model = random_model(rng, 2)
    layout = ModeLayout(2, 7)
    a = random_state(rng, layout, terms=2, max_occ=4)
    b = random_state(rng, layout, terms=2, max_occ=4)
    c1, c2 = 0.6, complex(0.0, 0.8)
    combo = a.scaled(c1).add(b.scaled(c2)).normalized()
    scale = a.scaled(c1).add(b.scaled(c2)).norm()
    pair = transform_first_order(model, combo)
    pa = transform_first_order(model, a)
    pb = transform_first_order(model, b)
    expected = pa.psi1.scaled(c1 / scale).add(pb.psi1.scaled(c2 / scale))
    assert state_distance(pair.psi1, expected) < 1e-12


def test_overlap_purely_imaginary():
    rng = np.random.default_rng(36)
    layout = ModeLayout(3, 7)
    for _ in range(6):
        model = rephased(random_model(rng, 3), rng.uniform(-np.pi, np.pi, 3))
        state = random_state(rng, layout, terms=3, max_occ=4)
        pair = transform_first_order(model, state)
        overlap = inner_product(pair.psi0, pair.psi1)
        assert abs(overlap + np.conj(overlap)) < 1e-10


def test_cutoff_headroom_enforced():
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 4)
    with pytest.raises(BudgetError):
        transform_first_order(model, StateVector.from_occupation(layout, [3]))


def test_unnormalized_input_rejected():
    model = single_mode_squeezer(0, 1)
    layout = ModeLayout(1, 4)
    with pytest.raises(ValueError):
        transform_first_order(model, StateVector(layout, {(0,): 0.5}))


def test_validity_check_examples():
    ratio, ok = validity_check(1e-3, 6.0)
    assert ratio == pytest.approx(1.5e-6)
    assert ok
    ratio, ok = validity_check(0.5, 100.0)
    assert ratio == pytest.approx(6.25)
    assert not ok
    ratio, ok = validity_check(0.0, 123.0)
    assert ratio == 0.0
    assert ok
    with pytest.raises(ValueError):
        validity_check(0.1, -1.0)


# Largest cutoff per mode count that keeps the (cutoff + 3)^modes dense
# reference for the cutoff check small.
_PROPERTY_CUTOFF = {1: 8, 2: 6, 3: 4, 4: 3}


@st.composite
def _generator_case(draw):
    modes = draw(st.integers(1, 4))
    cutoff = draw(st.integers(1, _PROPERTY_CUTOFF[modes]))
    occupation = st.tuples(*[st.integers(0, cutoff)] * modes)
    occs = draw(st.lists(occupation, min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        # Make sure some term sits at the cutoff, where creation passes it.
        at_cutoff = list(occs[0])
        at_cutoff[draw(st.integers(0, modes - 1))] = cutoff
        occs = list(dict.fromkeys([tuple(at_cutoff), *occs]))
    seed = draw(st.integers(0, 2**32 - 1))
    return modes, cutoff, occs, seed


@settings(max_examples=60, deadline=None)
@given(_generator_case())
def test_apply_generator_matches_dense_generator(case):
    modes, cutoff, occs, seed = case
    rng = np.random.default_rng(seed)
    model = rephased(random_model(rng, modes), rng.uniform(-math.pi, math.pi, modes))
    gen = build_generator(model)
    layout = ModeLayout(modes, cutoff)
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    state = StateVector(layout, dict(zip(occs, amps)))

    # Within one input term the contributions land on distinct occupations,
    # so a contribution passes the cutoff exactly where K|term>, in a layout
    # two levels wider, has weight beyond it.
    wide = ModeLayout(modes, cutoff + 2)
    wide_k = dense_generator_matrix(gen, wide)
    beyond = wide.occupations_of(np.arange(wide.basis_size)).max(axis=1) > cutoff
    if any(
        np.any(wide_k[beyond] @ StateVector(wide, {occ: c}).to_dense())
        for occ, c in state.items()
    ):
        with pytest.raises(BudgetError, match=f"cutoff {cutoff} too small"):
            apply_generator(gen, state)
        return

    out = apply_generator(gen, state)

    expected = dense_generator_matrix(gen, layout) @ state.to_dense()
    np.testing.assert_allclose(out.to_dense(), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_validity_check_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        validity_check(theta, 6.0)


def test_validity_check_rejects_overflowing_ratio():
    with pytest.raises(ValueError, match="not finite"):
        validity_check(1e200, 6.0)


def test_build_generator_validates_each_model_once(monkeypatch):
    from bogofisher import bogoliubov

    validated = []
    real_validate = bogoliubov.validate

    def counting_validate(model, *args, **kwargs):
        validated.append(model)
        return real_validate(model, *args, **kwargs)

    monkeypatch.setattr(bogoliubov, "validate", counting_validate)
    layout = ModeLayout(3, 6)
    # A model read by load_model is validated there and never again.
    doc = {"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 3}
    for start in (lambda: two_mode_squeezer(0, 1, 3), lambda: load_model(doc)):
        validated.clear()
        model = start()
        for occ in ([0, 0, 0], [1, 1, 0], [2, 0, 1]):
            transform_first_order(model, StateVector.from_occupation(layout, occ))
        assert build_generator(model) is build_generator(model)
        generator_from_model(model)
        assert validated == [model]
    other = two_mode_squeezer(0, 1, 3)
    assert build_generator(other) is not build_generator(model)
    assert validated == [model, other]


def test_failed_generator_build_is_not_kept():
    bad = BogoliubovFirstOrder(np.ones(2), np.zeros((2, 2)), np.array([[0, 1.0], [0, 0]]))
    for _ in range(2):
        with pytest.raises(UnitarityError):
            build_generator(bad)
