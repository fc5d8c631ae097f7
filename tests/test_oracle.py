"""Exact-propagator oracle: unitaries, coefficient extraction, fidelity QFI,
finite-difference derivatives, coherent states."""

import json
import math

import numpy as np
import pytest

from bogofisher import (
    BogoliubovFirstOrder,
    BudgetError,
    GeneratorK,
    ModeLayout,
    ModeSubset,
    StateVector,
    beam_splitter,
    build_generator,
    coherent_state,
    derivative_states,
    generator_from_model,
    qfi_fidelity_mixed,
    qfi_fidelity_pure,
    qfi_pure,
    qfi_reduced,
    single_mode_squeezer,
    transform_first_order,
    two_mode_squeezer,
    uhlmann_fidelity,
    validate,
)
from bogofisher import oracle
from bogofisher.cli import cli_main

from helpers import (
    box_sector,
    coo_hamiltonian,
    dense_hamiltonian_matrix,
    dense_propagator,
    extract_bogoliubov,
    extract_first_order,
    random_generator,
    random_model,
    random_state,
    rephased,
    state_distance,
)


def test_exact_unitary_at_zero_is_identity():
    gen = build_generator(single_mode_squeezer(0, 1))
    layout = ModeLayout(1, 8)
    u = dense_propagator(gen, 0.0, layout)
    assert np.allclose(u, np.eye(layout.basis_size), atol=1e-14)
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-12


def _random_sector(rng, layout):
    """An (N_max, parity classes) key with N_max of an allowed parity."""
    parity = [(0,), (1,), (0, 1)][int(rng.integers(3))]
    n_max = int(rng.integers(1, layout.mode_count * layout.cutoff + 1))
    return n_max - (n_max % 2 not in parity), parity


def _dense(op):
    """The operator A = (A - mu I) + mu I as a dense matrix."""
    dim = op.rows[-1] + 1
    A = np.zeros((dim, dim), dtype=np.complex128)
    A[op.rows, op.cols] = op.shifted
    return A + op.mu * np.eye(dim)


def test_hamiltonian_matches_kron_ladders():
    rng = np.random.default_rng(55)
    for modes, cutoff in ((1, 10), (2, 7), (3, 5)):
        layout = ModeLayout(modes, cutoff)
        for sector in (box_sector(layout), _random_sector(rng, layout)):
            gen = random_generator(rng, modes, 0.7)
            ranks = oracle._sector(layout, *sector)
            # P H P on the sector is the block of the truncated H on its states.
            expected = -1j * dense_hamiltonian_matrix(gen, layout)[np.ix_(ranks, ranks)]
            assert np.max(np.abs(_dense(oracle._prepared(gen, layout, *sector)) - expected)) < 1e-12


def test_sector_holds_the_states_up_to_n_max_of_its_parities():
    rng = np.random.default_rng(56)
    for modes, cutoff in ((1, 6), (2, 5), (3, 4), (4, 3)):
        layout = ModeLayout(modes, cutoff)
        occ = layout.occupations_of(np.arange(layout.basis_size))
        for n_max, parity in (box_sector(layout), *(_random_sector(rng, layout) for _ in range(4))):
            totals = occ.sum(axis=1)
            expected = np.flatnonzero((totals <= n_max) & np.isin(totals % 2, parity))
            sector = oracle._sector(layout, n_max, parity)
            assert sector.dtype == np.int64 and not sector.flags.writeable
            assert np.array_equal(sector, expected)


def test_sector_refused_past_the_dense_budget_before_it_is_built():
    # 10^9 levels of one mode: refused before any array of that length.
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        oracle._sector(ModeLayout(2, 10**9), 10**9, (0,))
    # 75,582 states of total 8 on 12 modes.
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        oracle._sector(ModeLayout(12, 8), 8, (0,))
    # Totals 8, 6, 4, 2 and 0 on 10 modes, less the 10 states with 8 in one mode.
    assert oracle._sector(ModeLayout(10, 7), 8, (0,)).size == 24_310 - 10 + 5_005 + 715 + 55 + 1


def _assert_matches_coo_reference(gen, layout, sector):
    """Every ``_Operator`` field equals the COO build byte for byte.

    The COO build's scipy subtraction drops exact zeros; the operator
    keeps its pattern, so its nonzero entries are compared.  The build
    forms H = iK and then -1j * H, which gives the zero part of an entry
    with a real or imaginary coefficient the sign -0 where the operator,
    gathered from K, has +0.  Adding 0.0 makes every zero part +0 before
    the bytes are compared: no product carries the sign of a zero part,
    as ``oracle._product`` adds each row's terms to +0
    (``test_stencil_on_real_coefficients_keeps_the_bits_of_expm_multiply``).
    """
    ref = coo_hamiltonian(gen, layout, sector)
    op = oracle._prepared(gen, layout, *sector)
    want = ref.shifted
    assert want.format == "csr" and want.has_canonical_format
    nonzero = op.shifted != 0
    want_rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
    assert np.array_equal(op.rows[nonzero], want_rows)
    assert np.array_equal(op.cols[nonzero], want.indices)
    assert op.shifted.dtype == want.data.dtype
    assert (op.shifted[nonzero] + 0.0).tobytes() == (want.data + 0.0).tobytes()
    assert op.norm == ref.norm
    assert op.shifted_norm == ref.shifted_norm
    assert np.complex128(op.mu).tobytes() == np.complex128(ref.mu).tobytes()


def test_operator_matches_coo_build_bit_for_bit():
    rng = np.random.default_rng(18)
    for k in range(60):
        modes = int(rng.integers(2, 5))
        layout = ModeLayout(modes, int(rng.integers(4, 9)))
        sector = box_sector(layout) if k % 4 == 0 else _random_sector(rng, layout)
        _assert_matches_coo_reference(random_generator(rng, modes, 0.7), layout, sector)
    layout = ModeLayout(3, 6)
    zero = np.zeros((3, 3))
    for gen in (
        build_generator(beam_splitter(0, 1, 3)),  # no diagonal, so mu = 0
        build_generator(single_mode_squeezer(1, 3)),
        build_generator(two_mode_squeezer(0, 2, 3)),
        GeneratorK(np.diag([0.3j, -1.1j, 0.0]), zero),  # diagonal only
        # n0 - n1 cancels exactly where n0 = n1 >= 1: explicit zeros in A.
        GeneratorK(np.diag([1j, -1j, 0.0]), zero),
        GeneratorK(zero, zero),
    ):
        for sector in (box_sector(layout), (8, (0,)), (7, (1,)), (5, (0, 1))):
            _assert_matches_coo_reference(gen, layout, sector)


def test_template_shared_per_layout_and_nonzero_pattern():
    rng = np.random.default_rng(19)
    layout, sector = ModeLayout(3, 5), (8, (0,))
    first, second = (random_generator(rng, 3, 0.7) for _ in range(2))
    oracle._prepared(first, layout, *sector)
    before = oracle._template.cache_info()
    _assert_matches_coo_reference(second, layout, sector)
    after = oracle._template.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert after.hits > before.hits
    shared = oracle._template(layout, *sector, oracle._pattern(first))
    assert oracle._template(layout, *sector, oracle._pattern(second)) is shared
    # A shared template cannot be changed through any of its arrays.
    for name, value in vars(shared).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
    assert np.array_equal(shared.diagonal, np.flatnonzero(shared.rows == shared.cols))
    # Exact zeros in K's blocks give a second pattern on the same sector.
    number, pair = first.number.copy(), first.pair_create.copy()
    number[0, 2] = number[2, 0] = number[1, 1] = 0.0
    pair[0, 1] = pair[1, 0] = pair[2, 2] = 0.0
    sparse = GeneratorK(number, pair)
    _assert_matches_coo_reference(sparse, layout, sector)
    assert oracle._template(layout, *sector, oracle._pattern(sparse)) is not shared
    assert oracle._template.cache_info().misses == before.misses + 1
    # Another sector of the same layout has its own template.
    assert oracle._template(layout, 7, (1,), oracle._pattern(first)) is not shared


def test_exact_unitary_group_property():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    layout = ModeLayout(2, 7)
    u1 = dense_propagator(gen, 0.07, layout)
    u2 = dense_propagator(gen, 0.05, layout)
    u12 = dense_propagator(gen, 0.12, layout)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


def test_squeezed_vacuum_overlap():
    gen = build_generator(single_mode_squeezer(0, 1))
    layout = ModeLayout(1, 20)
    theta = 0.1
    op, _, shell, v0 = oracle._placed(gen, StateVector.vacuum(layout))
    # The vacuum is the first state of its sector.
    overlap = abs(oracle._stencil(op, v0, shell, theta, two_sided=False)()[1][0]) ** 2
    assert overlap == pytest.approx(1.0 / math.cosh(theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.08, -0.08, 0.04, -0.04])
def test_sweep_matches_exact_unitary(theta):
    rng = np.random.default_rng(57)
    layout = ModeLayout(2, 9)
    gen = random_generator(rng, 2, 0.5)
    state = random_state(rng, layout, modes=[0, 1], terms=2, max_occ=2)
    op, _, shell, v0 = oracle._placed(gen, state)
    rows = oracle._stencil(op, v0, shell, 0.08, two_sided=True)()
    row = rows[[-0.08, -0.04, 0.04, 0.08].index(theta)]
    expected = dense_propagator(gen, theta, layout, oracle._sector_of(state)) @ v0
    assert np.max(np.abs(row - expected)) < 1e-12


@pytest.mark.parametrize("modes, cutoff", [(1, 10), (2, 9), (3, 8), (4, 8)])
def test_sector_sweep_matches_the_whole_layout(modes, cutoff):
    rng = np.random.default_rng(70 + modes)
    layout = ModeLayout(modes, cutoff)
    whole = box_sector(layout)
    for k in range(4):
        model = random_model(rng, modes)
        if k % 2:  # free-evolution phases G != 1
            model = rephased(model, rng.uniform(0.0, 2.0 * np.pi, modes))
        gen = generator_from_model(model)
        state = random_state(
            rng, layout, modes=range(min(modes, 2)), terms=int(rng.integers(1, 4)), max_occ=2
        )
        op, sector, shell, v0 = oracle._placed(gen, state)
        assert sector.size < layout.basis_size or modes == 1
        whole_op = oracle._prepared(gen, layout, *whole)
        box = oracle._taylor_stencil(whole_op, state.to_dense(), 1e-3, True)
        rows = oracle._stencil(op, v0, shell, 1e-3, two_sided=True)()
        assert np.max(np.abs(rows - box[:, sector])) < 1e-12
        # What the sector leaves out weighs less than the shell budget.
        outside = np.ones(layout.basis_size, dtype=bool)
        outside[sector] = False
        assert np.sum(np.abs(box[:, outside]) ** 2, axis=1).max() < oracle.SHELL_BUDGET


def test_single_parity_sector_sweeps_as_the_both_parity_sector():
    rng = np.random.default_rng(75)
    layout = ModeLayout(3, 6)
    for parity in (0, 1, 0, 1):
        gen = random_generator(rng, 3, 0.5)
        state = random_state(rng, layout, modes=[0, 1], terms=2, max_occ=2, parity=parity)
        n_max, classes = oracle._sector_of(state)
        assert classes == (parity,)
        op, sector, shell, v0 = oracle._placed(gen, state)
        both = oracle._sector(layout, n_max, (0, 1))
        v = np.zeros(both.size, dtype=np.complex128)
        v[np.searchsorted(both, state.ranks)] = state.amplitudes
        out = oracle._taylor_stencil(oracle._prepared(gen, layout, n_max, (0, 1)), v, 1e-3, True)
        inside = np.isin(both, sector)
        # H never changes the parity, so the other parity stays exactly empty.
        assert not np.any(out[:, ~inside])
        rows = oracle._stencil(op, v0, shell, 1e-3, two_sided=True)()
        assert np.max(np.abs(out[:, inside] - rows)) < 1e-13


def test_sweep_refuses_a_nan_theta():
    state = StateVector.from_occupation(ModeLayout(2, 7), [1, 1])
    op, _, shell, v0 = oracle._placed(build_generator(two_mode_squeezer(0, 1, 2)), state)
    for two_sided in (False, True):
        with pytest.raises(BudgetError, match="exceeds the budget"):
            oracle._stencil(op, v0, shell, math.nan, two_sided=two_sided)


def test_qfi_fidelity_pure_negative_step():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 9), [1, 1])
    backward = qfi_fidelity_pure(gen, state, dtheta=-1e-3)
    assert backward.value == pytest.approx(20.0, abs=1e-5)
    # Only |dtheta| enters: the bytes of the positive step.
    forward = qfi_fidelity_pure(gen, state, dtheta=1e-3)
    assert (backward.value.hex(), backward.error.hex()) == (
        forward.value.hex(),
        forward.error.hex(),
    )


def test_extract_bogoliubov_squeezer():
    gen = build_generator(single_mode_squeezer(0, 1))
    alpha, beta = extract_bogoliubov(gen, 0.3)
    assert alpha[0, 0] == pytest.approx(math.cosh(0.3))
    assert beta[0, 0] == pytest.approx(math.sinh(0.3))


def test_extract_bogoliubov_two_mode():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    alpha, beta = extract_bogoliubov(gen, 0.2)
    assert alpha[0, 0] == pytest.approx(math.cosh(0.2))
    assert alpha[1, 1] == pytest.approx(math.cosh(0.2))
    assert beta[0, 1] == pytest.approx(math.sinh(0.2))
    assert beta[1, 0] == pytest.approx(math.sinh(0.2))


def test_extract_symplectic_relations():
    rng = np.random.default_rng(51)
    gen = random_generator(rng, 3, 0.7)
    for theta in (0.1, 0.45):
        alpha, beta = extract_bogoliubov(gen, theta)
        eye = np.eye(3)
        assert np.max(np.abs(alpha @ alpha.conj().T - beta @ beta.conj().T - eye)) < 1e-11
        assert np.max(np.abs(alpha @ beta.T - (alpha @ beta.T).T)) < 1e-11


def test_extract_first_order_matches_builtin_models():
    # K = -iH of each builtin model, written out from its Hamiltonian.
    zero = np.zeros((2, 2), dtype=np.complex128)
    squeeze = zero.copy()  # H = i(a_0^2 - a_0^dag^2)/2
    squeeze[0, 0] = -1.0
    pair = zero.copy()  # H = i(a_0 a_1 - a_0^dag a_1^dag)
    pair[0, 1] = pair[1, 0] = -1.0
    hop = zero.copy()  # H = i(a_0^dag a_1 - a_0 a_1^dag)
    hop[0, 1], hop[1, 0] = 1.0, -1.0
    pairs = [
        (GeneratorK(zero, squeeze), single_mode_squeezer(0, 2)),
        (GeneratorK(zero, pair), two_mode_squeezer(0, 1, 2)),
        (GeneratorK(hop, zero), beam_splitter(0, 1, 2)),
    ]
    for gen, model in pairs:
        extracted = extract_first_order(gen)
        assert np.max(np.abs(extracted.alpha1 - model.alpha1)) < 1e-8
        assert np.max(np.abs(extracted.beta1 - model.beta1)) < 1e-8
        built = build_generator(model)
        assert np.array_equal(built.number, gen.number)
        assert np.array_equal(built.pair_create, gen.pair_create)


def test_extracted_models_validate():
    rng = np.random.default_rng(52)
    for _ in range(5):
        gen = random_generator(rng, 3, 0.5)
        assert validate(extract_first_order(gen)).passed


def test_generator_from_model_roundtrip():
    # The oracle propagates the first-order route's own K.
    assert generator_from_model is build_generator
    for model in (
        single_mode_squeezer(0, 1),
        single_mode_squeezer(0, 2),
        two_mode_squeezer(0, 1, 2),
        beam_splitter(0, 1, 2),
    ):
        gen = generator_from_model(model)
        again = extract_first_order(gen)
        assert np.max(np.abs(again.alpha1 - model.alpha1)) < 1e-9
        assert np.max(np.abs(again.beta1 - model.beta1)) < 1e-9
    # Rephased models: the classical exponential of H = iK, times U0,
    # recovers (G, alpha1, beta1).
    rng = np.random.default_rng(57)
    for _ in range(5):
        model = rephased(random_model(rng, 3), rng.uniform(0.0, 2.0 * np.pi, 3))
        again = extract_first_order(generator_from_model(model), G=model.G)
        assert np.max(np.abs(again.alpha1 - model.alpha1)) < 1e-9
        assert np.max(np.abs(again.beta1 - model.beta1)) < 1e-9


def test_qfi_fidelity_pure_zero_generator():
    gen = GeneratorK(np.zeros((1, 1)), np.zeros((1, 1)))
    est = qfi_fidelity_pure(gen, StateVector.vacuum(ModeLayout(1, 6)))
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_qfi_fidelity_pure_squeezer_vacuum():
    est = qfi_fidelity_pure(
        build_generator(single_mode_squeezer(0, 1)), StateVector.vacuum(ModeLayout(1, 10))
    )
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_qfi_fidelity_pure_two_mode_11():
    est = qfi_fidelity_pure(
        build_generator(two_mode_squeezer(0, 1, 2)),
        StateVector.from_occupation(ModeLayout(2, 9), [1, 1]),
    )
    assert est.value == pytest.approx(20.0, abs=1e-5)


def test_qfi_fidelity_pure_four_modes_matches_first_order():
    rng = np.random.default_rng(56)
    gen = random_generator(rng, 4, 0.4)
    state = StateVector.from_occupation(ModeLayout(4, 7), [1, 1, 0, 0])
    first_order = qfi_pure(transform_first_order(extract_first_order(gen), state))
    assert qfi_fidelity_pure(gen, state).value == pytest.approx(first_order, abs=1e-5)


def test_qfi_fidelity_mixed_matches_reduced_on_superpositions():
    rng = np.random.default_rng(11)
    layout = ModeLayout(3, 8)
    keep = ModeSubset.of([0, 1])
    for _ in range(8):
        gen = random_generator(rng, 3, 0.4)
        state = random_state(
            rng, layout, modes=[0, 1], terms=int(rng.integers(1, 4)), max_occ=2
        )
        mixed = qfi_fidelity_mixed(gen, state, keep)
        reduced = qfi_reduced(extract_first_order(gen), state, keep)
        assert abs(mixed.value - reduced.qfi) <= 1e-6


def test_fidelity_qfi_matches_first_order_on_rephased_models():
    # U0 = prod_n G_n^(n_n) does not depend on theta, so the oracle's
    # exp(-i theta H) with H = iK has the model's pure and reduced QFI.
    rng = np.random.default_rng(7)
    layout = ModeLayout(3, 8)
    keep = ModeSubset.of([0, 1])
    for _ in range(4):
        model = rephased(random_model(rng, 3), rng.uniform(0.0, 2.0 * np.pi, 3))
        assert np.max(np.abs(model.G - 1.0)) > 1e-3
        state = random_state(rng, layout, modes=[0, 1], terms=2, max_occ=2)
        gen = generator_from_model(model)
        pure = qfi_pure(transform_first_order(model, state))
        assert qfi_fidelity_pure(gen, state).value == pytest.approx(pure, rel=1e-7)
        mixed = qfi_fidelity_mixed(gen, state, keep)
        assert abs(mixed.value - qfi_reduced(model, state, keep).qfi) <= 1e-6


def test_qfi_fidelity_mixed_keep_all_matches_pure():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 9), [1, 1])
    pure = qfi_fidelity_pure(gen, state)
    mixed = qfi_fidelity_mixed(gen, state, ModeSubset.of([0, 1]))
    assert mixed.value == pytest.approx(pure.value, abs=1e-8)


def test_qfi_fidelity_mixed_vacuum_two_mode_squeezer():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    vac = StateVector.vacuum(ModeLayout(2, 9))
    mixed = qfi_fidelity_mixed(gen, vac, ModeSubset.of([0]))
    # no loss at leading order: reduced equals the pure vacuum QFI of 4
    assert mixed.value == pytest.approx(4.0, abs=1e-5)


def test_qfi_fidelity_mixed_independent_squeezers():
    squeezers = BogoliubovFirstOrder(np.ones(2), np.zeros((2, 2)), np.diag([1.0, 0.5]))
    gen = build_generator(squeezers)
    vac = StateVector.vacuum(ModeLayout(2, 9))
    mixed = qfi_fidelity_mixed(gen, vac, ModeSubset.of([0]))
    assert mixed.value == pytest.approx(2.0, abs=1e-4)


def test_fidelity_mixed_below_pure():
    rng = np.random.default_rng(53)
    for _ in range(3):
        gen = random_generator(rng, 2, 0.4)
        layout = ModeLayout(2, 9)
        state = StateVector.from_occupation(layout, [1, 0])
        pure = qfi_fidelity_pure(gen, state)
        mixed = qfi_fidelity_mixed(gen, state, ModeSubset.of([0]))
        assert mixed.value <= pure.value + 1e-6


def test_derivative_states_zero_generator():
    gen = GeneratorK(np.zeros((2, 2)), np.zeros((2, 2)))
    state = StateVector.from_occupation(ModeLayout(2, 5), [1, 1])
    ders = derivative_states(gen, state)
    assert ders.psi1.norm() < 1e-12
    assert np.max(np.abs(ders.rho1.matrix)) < 1e-12
    assert np.max(np.abs(ders.rho2.matrix)) < 1e-12


def test_derivative_states_squeezer_vacuum():
    gen = build_generator(single_mode_squeezer(0, 1))
    ders = derivative_states(gen, StateVector.vacuum(ModeLayout(1, 10)))
    expected = StateVector(ModeLayout(1, 10), {(2,): -1.0 / math.sqrt(2.0)})
    assert state_distance(ders.psi1, expected) < 1e-8


def test_derivative_states_traceless_corrections():
    rng = np.random.default_rng(54)
    gen = random_generator(rng, 2, 0.5)
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    assert abs(ders.rho1.trace) < 1e-8
    assert abs(ders.rho2.trace) < 1e-8


def test_uhlmann_fidelity_pure_states():
    rho_a = np.diag([1.0, 0.0]).astype(complex)
    rho_b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert uhlmann_fidelity(rho_a, rho_b) == pytest.approx(0.5)
    assert uhlmann_fidelity(rho_a, rho_a) == pytest.approx(1.0)


def test_uhlmann_fidelity_commuting_mixtures():
    rho_a = np.diag([0.7, 0.3]).astype(complex)
    rho_b = np.diag([0.4, 0.6]).astype(complex)
    expected = (math.sqrt(0.7 * 0.4) + math.sqrt(0.3 * 0.6)) ** 2
    assert uhlmann_fidelity(rho_a, rho_b) == pytest.approx(expected)


def test_coherent_state_mean_occupation():
    layout = ModeLayout(1, 35)
    for n_bar in (1.0, 4.0):
        alpha = math.sqrt(n_bar)
        state = coherent_state(layout, 0, alpha)
        mean = sum(abs(c) ** 2 * occ[0] for occ, c in state.items())
        assert mean == pytest.approx(n_bar, abs=1e-9)


def test_coherent_state_budget_violation():
    with pytest.raises(BudgetError):
        coherent_state(ModeLayout(1, 6), 0, 3.0)


def test_coherent_state_refuses_oversize_dense_vector_before_building_it():
    with pytest.raises(BudgetError, match="dense-dimension budget"):
        coherent_state(ModeLayout(1, 10**9), 0, 1.0)


def test_shell_budget_violation():
    gen = build_generator(single_mode_squeezer(0, 1))
    layout = ModeLayout(1, 4)
    # An input on the shell is refused before any stencil.
    with pytest.raises(BudgetError, match="raise the cutoff"):
        oracle._placed(gen, StateVector.from_occupation(layout, [3]))
    # So is a stencil that carries weight onto it: |4> at theta = 0.3.
    op, _, shell, v0 = oracle._placed(gen, StateVector.vacuum(layout))
    rows = oracle._stencil(op, v0, shell, 0.3, two_sided=False)
    with pytest.raises(BudgetError, match="raise the cutoff"):
        rows()


def test_shell_coupling_small_with_headroom():
    gen = build_generator(single_mode_squeezer(0, 1))
    layout = ModeLayout(1, 14)
    u = dense_propagator(gen, 1e-3, layout)
    # Amplitude moved from interior states into the two boundary levels.
    shell = oracle._shell_mask(layout, *box_sector(layout))
    assert np.linalg.norm(u[np.ix_(shell, ~shell)], ord=2) < 0.05
    assert np.max(np.abs(np.linalg.norm(u, axis=0) - 1.0)) < 1e-12


def _stencil_reference(gen, state, keep_count, dtheta, dtheta2):
    """psi1, rho1, rho2 from dense propagators at each stencil theta.

    The kept modes are the leading ``keep_count`` modes, so the reduced
    state is flat @ flat^dag with flat the vector reshaped kept x rest.
    """
    layout = state.layout
    v0 = state.to_dense()
    kept_dim = (layout.cutoff + 1) ** keep_count

    def psi(theta):
        return dense_propagator(gen, theta, layout) @ v0

    def rho(vec):
        flat = vec.reshape(kept_dim, -1)
        return flat @ flat.conj().T

    def combine(coarse, fine):
        return (4.0 * fine - coarse) / 3.0

    h, q = dtheta, dtheta / 2.0
    psi1 = combine((psi(h) - psi(-h)) / (2.0 * h), (psi(q) - psi(-q)) / (2.0 * q))
    rho1 = combine(
        (rho(psi(h)) - rho(psi(-h))) / (2.0 * h),
        (rho(psi(q)) - rho(psi(-q))) / (2.0 * q),
    )
    h, q = dtheta2, dtheta2 / 2.0
    rho_0 = rho(v0)
    rho2 = combine(
        (rho(psi(h)) - 2.0 * rho_0 + rho(psi(-h))) / (2.0 * h * h),
        (rho(psi(q)) - 2.0 * rho_0 + rho(psi(-q))) / (2.0 * q * q),
    )
    return psi1, rho1, rho2


# At cutoff 6 the 3-mode case's rho2 sweep (over +-4e-3) puts 2.9e-10 of
# weight on totals 6 and 7, the shell of its sector (N_max = 7): rho2 is
# refused there, and answered at cutoff 7.
_RHO2_REFUSED = {(3, 6, 2, 1)}


@pytest.mark.parametrize(
    "modes,cutoff,keep_count,max_occ",
    [(1, 10, 1, 2), (2, 8, 1, 2), (3, 6, 2, 1), (3, 7, 2, 1)],
)
def test_derivative_states_match_exact_unitary_stencil(modes, cutoff, keep_count, max_occ):
    # Steps of 1e-3 and 4e-3 keep the round-off that the second difference
    # divides by h^2 well below the tolerance on both sides.
    dtheta, dtheta2 = 1e-3, 4e-3
    rng = np.random.default_rng(60 + modes)
    layout = ModeLayout(modes, cutoff)
    gen = random_generator(rng, modes, 0.4)
    state = random_state(
        rng, layout, modes=list(range(min(modes, 2))), terms=2, max_occ=max_occ
    )
    ders = derivative_states(
        gen,
        state,
        dtheta=dtheta,
        dtheta2=dtheta2,
        keep=ModeSubset.of(range(keep_count)),
    )
    psi1, rho1, rho2 = _stencil_reference(gen, state, keep_count, dtheta, dtheta2)
    assert np.max(np.abs(ders.psi1.to_dense() - psi1)) < 1e-9
    assert np.max(np.abs(ders.rho1.matrix - rho1)) < 1e-9
    if (modes, cutoff, keep_count, max_occ) in _RHO2_REFUSED:
        with pytest.raises(BudgetError, match="raise the cutoff"):
            ders.rho2
    else:
        assert np.max(np.abs(ders.rho2.matrix - rho2)) < 1e-9


def test_derivative_states_corrections_built_once_on_read(monkeypatch):
    calls = {"reduced": 0}
    real_reduced = oracle._reduced_dense

    def counting_reduced(*args):
        calls["reduced"] += 1
        return real_reduced(*args)

    monkeypatch.setattr(oracle, "_reduced_dense", counting_reduced)
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    assert calls["reduced"] == 0
    rho2 = ders.rho2
    built = calls["reduced"]
    assert built > 0
    assert ders.rho2 is rho2
    assert calls["reduced"] == built


def test_derivative_states_hermitian_check_runs_on_read(monkeypatch):
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    monkeypatch.setattr(oracle, "_hermitize", lambda matrix: matrix + 1j * np.eye(len(matrix)))
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        ders.rho1


def _count_evolutions(monkeypatch) -> list:
    """Record each ``_taylor_stencil`` call, the oracle's one evolution, as (h, two_sided)."""
    calls = []
    real = oracle._taylor_stencil

    def counting(op, v, h, two_sided):
        calls.append((h, two_sided))
        return real(op, v, h, two_sided)

    monkeypatch.setattr(oracle, "_taylor_stencil", counting)
    return calls


def test_derivative_states_reading_rho2_alone_runs_one_stencil(monkeypatch):
    calls = _count_evolutions(monkeypatch)
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    ders = derivative_states(gen, state, dtheta=1e-4, dtheta2=1e-3, keep=ModeSubset.of([0]))
    assert calls == []
    ders.rho2
    assert calls == [(1e-3, True)]


def test_derivative_states_psi1_and_rho1_share_one_stencil(monkeypatch):
    calls = _count_evolutions(monkeypatch)
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    ders = derivative_states(gen, state, dtheta=1e-4, dtheta2=1e-3, keep=ModeSubset.of([0]))
    psi1 = ders.psi1
    ders.rho1
    assert ders.psi1 is psi1
    assert calls == [(1e-4, True)]


def test_derivative_states_negative_steps_give_the_same_bytes():
    rng = np.random.default_rng(21)
    gen = random_generator(rng, 2, 0.4)
    state = random_state(rng, ModeLayout(2, 8), modes=[0, 1], terms=2, max_occ=2)
    keep = ModeSubset.of([0])
    plus = derivative_states(gen, state, dtheta=2e-4, dtheta2=2e-3, keep=keep)
    minus = derivative_states(gen, state, dtheta=-2e-4, dtheta2=-2e-3, keep=keep)
    assert minus.psi1.amplitudes.tobytes() == plus.psi1.amplitudes.tobytes()
    assert np.array_equal(minus.psi1.ranks, plus.psi1.ranks)
    assert minus.rho1.matrix.tobytes() == plus.rho1.matrix.tobytes()
    assert minus.rho2.matrix.tobytes() == plus.rho2.matrix.tobytes()


def test_oracle_compare_sweeps_twice_and_builds_no_density_matrix(
    monkeypatch, tmp_path, capsys
):
    # Two stencils: the + side for the fidelity QFI, both sides for psi1.
    calls = {"reduced": 0}
    sweeps = _count_evolutions(monkeypatch)
    real_reduced = oracle._reduced_dense

    def counting_reduced(*args):
        calls["reduced"] += 1
        return real_reduced(*args)

    monkeypatch.setattr(oracle, "_reduced_dense", counting_reduced)
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({"builtin": "two_mode_squeezer", "k": 0, "kprime": 1, "modes": 3}),
        encoding="utf-8",
    )
    state = tmp_path / "state.json"
    state.write_text(
        json.dumps(
            [
                {"occ": [1, 0, 0], "re": 0.6, "im": 0.0},
                {"occ": [0, 2, 1], "re": 0.0, "im": 0.8},
            ]
        ),
        encoding="utf-8",
    )
    assert cli_main(["oracle-compare", str(model), "--state", str(state)]) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert calls["reduced"] == 0
    assert sorted(two_sided for _, two_sided in sweeps) == [False, True]


def test_shell_monitor_rejects_non_finite_vector():
    layout = ModeLayout(1, 6)
    vec = np.zeros(layout.basis_size, dtype=np.complex128)
    vec[0] = 1.0
    vec[layout.cutoff] = np.nan
    with pytest.raises(BudgetError):
        oracle._check_shell_weight(vec, oracle._shell_mask(layout, *box_sector(layout)))


_STEP_CALLS = {
    "pure": lambda gen, state, step: qfi_fidelity_pure(gen, state, dtheta=step),
    "mixed": lambda gen, state, step: qfi_fidelity_mixed(
        gen, state, ModeSubset.of([0]), dtheta=step
    ),
    "derivative": lambda gen, state, step: derivative_states(gen, state, dtheta=step),
    "derivative2": lambda gen, state, step: derivative_states(gen, state, dtheta2=step),
}


@pytest.mark.parametrize("step", [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-200, 1e300])
@pytest.mark.parametrize("call", sorted(_STEP_CALLS))
def test_bad_steps_raise_value_error(call, step):
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 7), [1, 1])
    with pytest.raises(ValueError, match="dtheta"):
        _STEP_CALLS[call](gen, state, step)


def test_sweep_over_norm_budget_refused_before_expm_multiply(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Taylor stencil ran on a refused step")

    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(2, 7), [1, 1])
    norm = oracle._prepared(gen, state.layout, *oracle._sector_of(state)).norm
    monkeypatch.setattr(oracle, "_taylor_stencil", refuse)
    theta = 1.01 * oracle.SWEEP_NORM_BUDGET / norm
    op, _, shell, v0 = oracle._placed(gen, state)
    # The span evaluated: h on the + side alone, 2h on both sides.
    for evolve in (
        lambda: oracle._stencil(op, v0, shell, theta, two_sided=False),
        lambda: oracle._stencil(op, v0, shell, theta / 2.0, two_sided=True),
        lambda: qfi_fidelity_pure(gen, state, dtheta=theta),
        lambda: qfi_fidelity_pure(gen, state, dtheta=-theta),
        lambda: derivative_states(gen, state, dtheta=theta / 2.0),
    ):
        with pytest.raises(BudgetError, match="exceeds the budget"):
            evolve()


def test_operator_built_once_per_generator_and_truncation(monkeypatch):
    builds = []
    real_operator = oracle._Operator

    def counting_operator(*fields):
        builds.append(real_operator(*fields))
        return builds[-1]

    monkeypatch.setattr(oracle, "_Operator", counting_operator)
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    layout = ModeLayout(2, 7)
    state = StateVector.from_occupation(layout, [1, 1])
    first = qfi_fidelity_pure(gen, state)
    assert qfi_fidelity_pure(gen, state) == first
    derivative_states(gen, state).rho2
    dense_propagator(gen, 0.1, layout)
    # |1,1> at cutoff 7: the even totals up to 2 + 6.
    sector = oracle._sector_of(state)
    assert sector == (8, (0,))
    assert builds == [oracle._prepared(gen, layout, *sector)]
    qfi_fidelity_pure(gen, StateVector.from_occupation(ModeLayout(2, 8), [1, 1]))
    fresh = build_generator(two_mode_squeezer(0, 1, 2))
    assert qfi_fidelity_pure(fresh, state) == first
    # 1 + 3 + 5 + 7 + 7 states at cutoff 7; at cutoff 8, N_max = 9 holds no
    # even total, so it is 8 again: 1 + 3 + 5 + 7 + 9 states.
    assert [op.rows[-1] + 1 for op in builds] == [23, 25, 23]
    assert builds[2] is oracle._prepared(fresh, layout, *sector)


def test_generator_and_state_mode_counts_must_match():
    gen = build_generator(two_mode_squeezer(0, 1, 2))
    state = StateVector.from_occupation(ModeLayout(3, 5), [1, 1, 0])
    for evolve in (
        lambda: qfi_fidelity_pure(gen, state),
        lambda: derivative_states(gen, state),
        lambda: oracle._placed(gen, state),
    ):
        with pytest.raises(ValueError, match="^generator and layout have different mode counts$"):
            evolve()


def test_kept_operator_norm_and_read_only_shell_mask():
    gen = build_generator(single_mode_squeezer(0, 1))
    layout = ModeLayout(1, 6)
    op = oracle._prepared(gen, layout, *box_sector(layout))
    assert oracle._prepared(gen, layout, *box_sector(layout)) is op
    dense = dense_hamiltonian_matrix(gen, layout)
    assert op.norm == pytest.approx(np.max(np.abs(dense).sum(axis=0)))
    mask = oracle._shell_mask(layout, *box_sector(layout))
    assert oracle._shell_mask(ModeLayout(1, 6), *box_sector(layout)) is mask
    assert not mask.flags.writeable
    # The shell of a sector also holds its two largest totals: here total 4
    # alone, as total 3 is odd and no mode reaches 5.
    two = ModeLayout(2, 6)
    totals = two.occupations_of(oracle._sector(two, 4, (0,))).sum(axis=1)
    assert np.array_equal(oracle._shell_mask(two, 4, (0,)), totals == 4)


def test_coherent_state_matches_poisson_amplitudes():
    layout = ModeLayout(1, 30)
    alpha = 1.5 * complex(math.cos(0.3), math.sin(0.3))
    state = coherent_state(layout, 0, alpha)
    expected = np.array(
        [alpha**n / math.sqrt(math.factorial(n)) for n in range(layout.cutoff + 1)]
    )
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(state.to_dense() - expected)) < 1e-14
