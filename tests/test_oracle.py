"""Exact-propagator oracle: unitaries, coefficient extraction, fidelity QFI,
finite-difference derivatives, coherent states."""

import json
import math

import numpy as np
import pytest

from bogofisher import (
    BudgetError,
    GeneratorSpec,
    ModeLayout,
    ModeSubset,
    StateVector,
    beam_splitter,
    beam_splitter_generator,
    coherent_state,
    derivative_states,
    evolve_state,
    exact_unitary,
    extract_bogoliubov,
    extract_first_order,
    generator_from_model,
    hamiltonian,
    independent_squeezers_generator,
    qfi_fidelity_mixed,
    qfi_fidelity_pure,
    qfi_pure,
    qfi_reduced,
    single_mode_squeezer,
    squeezer_generator,
    transform_first_order,
    two_mode_squeezer,
    two_mode_squeezer_generator,
    uhlmann_fidelity,
    validate,
)
from bogofisher import oracle
from bogofisher.cli import cli_main

from helpers import dense_hamiltonian_matrix, random_generator, random_state, state_distance


def test_exact_unitary_at_zero_is_identity():
    gen = squeezer_generator(0, 1)
    layout = ModeLayout(1, 8)
    u = exact_unitary(gen, 0.0, layout)
    assert np.allclose(u.matrix, np.eye(layout.basis_size), atol=1e-14)
    assert u.unitarity_residual < 1e-12


def test_hamiltonian_matches_kron_ladders():
    rng = np.random.default_rng(55)
    for modes, cutoff in ((1, 10), (2, 7), (3, 5)):
        layout = ModeLayout(modes, cutoff)
        for _ in range(3):
            gen = random_generator(rng, modes, 0.7)
            H = hamiltonian(gen, layout).toarray()
            assert np.max(np.abs(H - dense_hamiltonian_matrix(gen, layout))) < 1e-12


def test_exact_unitary_dense_budget():
    gen = squeezer_generator(0, 2)
    with pytest.raises(BudgetError):
        exact_unitary(gen, 0.1, ModeLayout(2, 99))


def test_exact_unitary_group_property():
    gen = two_mode_squeezer_generator(0, 1, 2)
    layout = ModeLayout(2, 7)
    u1 = exact_unitary(gen, 0.07, layout).matrix
    u2 = exact_unitary(gen, 0.05, layout).matrix
    u12 = exact_unitary(gen, 0.12, layout).matrix
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


def test_squeezed_vacuum_overlap():
    gen = squeezer_generator(0, 1)
    layout = ModeLayout(1, 20)
    theta = 0.1
    vac = StateVector.vacuum(layout)
    evolved = evolve_state(gen, vac, theta)
    overlap = abs(evolved.amplitude([0])) ** 2
    assert overlap == pytest.approx(1.0 / math.cosh(theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.08, -0.08, 0.0])
def test_evolve_state_matches_exact_unitary(theta):
    rng = np.random.default_rng(57)
    layout = ModeLayout(2, 9)
    gen = random_generator(rng, 2, 0.5)
    state = random_state(rng, layout, modes=[0, 1], terms=2, max_occ=2)
    expected = exact_unitary(gen, theta, layout).matrix @ state.to_dense()
    evolved = evolve_state(gen, state, theta).to_dense()
    assert np.max(np.abs(evolved - expected)) < 1e-12


def test_qfi_fidelity_pure_negative_step():
    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 9), [1, 1])
    backward = qfi_fidelity_pure(gen, state, dtheta=-1e-3)
    assert backward.value == pytest.approx(20.0, abs=1e-5)


def test_extract_bogoliubov_squeezer():
    gen = squeezer_generator(0, 1)
    alpha, beta = extract_bogoliubov(gen, 0.3)
    assert alpha[0, 0] == pytest.approx(math.cosh(0.3))
    assert beta[0, 0] == pytest.approx(math.sinh(0.3))


def test_extract_bogoliubov_two_mode():
    gen = two_mode_squeezer_generator(0, 1, 2)
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
    pairs = [
        (squeezer_generator(0, 2), single_mode_squeezer(0, 2)),
        (two_mode_squeezer_generator(0, 1, 2), two_mode_squeezer(0, 1, 2)),
        (beam_splitter_generator(0, 1, 2), beam_splitter(0, 1, 2)),
    ]
    for gen, model in pairs:
        extracted = extract_first_order(gen)
        assert np.max(np.abs(extracted.alpha1 - model.alpha1)) < 1e-8
        assert np.max(np.abs(extracted.beta1 - model.beta1)) < 1e-8


def test_extracted_models_validate():
    rng = np.random.default_rng(52)
    for _ in range(5):
        gen = random_generator(rng, 3, 0.5)
        assert validate(extract_first_order(gen)).passed


def test_generator_from_model_roundtrip():
    for model in (
        single_mode_squeezer(0, 1),
        two_mode_squeezer(0, 1, 2),
        beam_splitter(0, 1, 2),
    ):
        gen = generator_from_model(model)
        again = extract_first_order(gen)
        assert np.max(np.abs(again.alpha1 - model.alpha1)) < 1e-9
        assert np.max(np.abs(again.beta1 - model.beta1)) < 1e-9


def test_qfi_fidelity_pure_zero_generator():
    gen = GeneratorSpec(np.zeros((1, 1)), np.zeros((1, 1)))
    est = qfi_fidelity_pure(gen, StateVector.vacuum(ModeLayout(1, 6)))
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_qfi_fidelity_pure_squeezer_vacuum():
    est = qfi_fidelity_pure(
        squeezer_generator(0, 1), StateVector.vacuum(ModeLayout(1, 10))
    )
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_qfi_fidelity_pure_two_mode_11():
    est = qfi_fidelity_pure(
        two_mode_squeezer_generator(0, 1, 2),
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


def test_qfi_fidelity_mixed_keep_all_matches_pure():
    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 9), [1, 1])
    pure = qfi_fidelity_pure(gen, state)
    mixed = qfi_fidelity_mixed(gen, state, ModeSubset.of([0, 1]))
    assert mixed.value == pytest.approx(pure.value, abs=1e-8)


def test_qfi_fidelity_mixed_vacuum_two_mode_squeezer():
    gen = two_mode_squeezer_generator(0, 1, 2)
    vac = StateVector.vacuum(ModeLayout(2, 9))
    mixed = qfi_fidelity_mixed(gen, vac, ModeSubset.of([0]))
    # no loss at leading order: reduced equals the pure vacuum QFI of 4
    assert mixed.value == pytest.approx(4.0, abs=1e-5)


def test_qfi_fidelity_mixed_independent_squeezers():
    gen = independent_squeezers_generator([1.0, 0.5])
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
    gen = GeneratorSpec(np.zeros((2, 2)), np.zeros((2, 2)))
    state = StateVector.from_occupation(ModeLayout(2, 5), [1, 1])
    ders = derivative_states(gen, state)
    assert ders.psi1.norm() < 1e-12
    assert np.max(np.abs(ders.rho1.matrix)) < 1e-12
    assert np.max(np.abs(ders.rho2.matrix)) < 1e-12


def test_derivative_states_squeezer_vacuum():
    gen = squeezer_generator(0, 1)
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


def test_evolve_state_budget_violation():
    gen = squeezer_generator(0, 1)
    layout = ModeLayout(1, 4)
    state = StateVector.from_occupation(layout, [3])
    with pytest.raises(BudgetError):
        evolve_state(gen, state, 0.3)


def test_shell_coupling_small_with_headroom():
    gen = squeezer_generator(0, 1)
    u = exact_unitary(gen, 1e-3, ModeLayout(1, 14))
    assert u.shell_coupling < 0.05
    assert u.unitarity_residual < 1e-12


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        GeneratorSpec(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.5, 0.0]]))


def _stencil_reference(gen, state, keep_count, dtheta, dtheta2, richardson):
    """psi1, rho1, rho2 from dense exact_unitary propagators at each stencil theta.

    The kept modes are the leading ``keep_count`` modes, so the reduced
    state is flat @ flat^dag with flat the vector reshaped kept x rest.
    """
    layout = state.layout
    v0 = state.to_dense()
    kept_dim = (layout.cutoff + 1) ** keep_count

    def psi(theta):
        return exact_unitary(gen, theta, layout).matrix @ v0

    def rho(vec):
        flat = vec.reshape(kept_dim, -1)
        return flat @ flat.conj().T

    def combine(coarse, fine):
        return (4.0 * fine - coarse) / 3.0 if richardson else coarse

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


@pytest.mark.parametrize("richardson", [True, False])
@pytest.mark.parametrize(
    "modes,cutoff,keep_count,max_occ", [(1, 10, 1, 2), (2, 8, 1, 2), (3, 6, 2, 1)]
)
def test_derivative_states_match_exact_unitary_stencil(
    modes, cutoff, keep_count, max_occ, richardson
):
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
        richardson=richardson,
    )
    psi1, rho1, rho2 = _stencil_reference(
        gen, state, keep_count, dtheta, dtheta2, richardson
    )
    assert np.max(np.abs(ders.psi1.to_dense() - psi1)) < 1e-9
    assert np.max(np.abs(ders.rho1.matrix - rho1)) < 1e-9
    assert np.max(np.abs(ders.rho2.matrix - rho2)) < 1e-9


def test_derivative_states_corrections_built_once_on_read(monkeypatch):
    calls = {"reduced": 0}
    real_reduced = oracle._reduced_dense

    def counting_reduced(*args):
        calls["reduced"] += 1
        return real_reduced(*args)

    monkeypatch.setattr(oracle, "_reduced_dense", counting_reduced)
    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    assert calls["reduced"] == 0
    rho2 = ders.rho2
    built = calls["reduced"]
    assert built > 0
    assert ders.rho2 is rho2
    assert calls["reduced"] == built


def test_derivative_states_hermitian_check_runs_on_read(monkeypatch):
    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 8), [1, 0])
    monkeypatch.setattr(oracle, "_hermitize", lambda matrix: matrix + 1j * np.eye(len(matrix)))
    ders = derivative_states(gen, state, keep=ModeSubset.of([0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        ders.rho1


def test_oracle_compare_sweeps_twice_and_builds_no_density_matrix(
    monkeypatch, tmp_path, capsys
):
    calls = {"expm_multiply": 0, "reduced": 0}
    real_expm_multiply = oracle.expm_multiply
    real_reduced = oracle._reduced_dense

    def counting_expm_multiply(*args, **kwargs):
        calls["expm_multiply"] += 1
        return real_expm_multiply(*args, **kwargs)

    def counting_reduced(*args):
        calls["reduced"] += 1
        return real_reduced(*args)

    monkeypatch.setattr(oracle, "expm_multiply", counting_expm_multiply)
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
    assert calls["expm_multiply"] <= 2


def test_shell_monitor_rejects_non_finite_vector():
    layout = ModeLayout(1, 6)
    vec = np.zeros(layout.basis_size, dtype=np.complex128)
    vec[0] = 1.0
    vec[layout.cutoff] = np.nan
    with pytest.raises(BudgetError):
        oracle._check_shell_weight(vec, oracle._shell_mask(layout), 1e-10)


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
    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 7), [1, 1])
    with pytest.raises(ValueError, match="dtheta"):
        _STEP_CALLS[call](gen, state, step)


def test_sweep_over_norm_budget_refused_before_expm_multiply(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply ran on a refused sweep")

    gen = two_mode_squeezer_generator(0, 1, 2)
    state = StateVector.from_occupation(ModeLayout(2, 7), [1, 1])
    _, norm = oracle._operator(gen, state.layout)
    monkeypatch.setattr(oracle, "expm_multiply", refuse)
    theta = 1.01 * oracle.SWEEP_NORM_BUDGET / norm
    for evolve in (
        lambda: evolve_state(gen, state, theta),
        lambda: evolve_state(gen, state, -theta),
        lambda: qfi_fidelity_pure(gen, state, dtheta=theta),
        lambda: derivative_states(gen, state, dtheta=theta / 2.0),
    ):
        with pytest.raises(BudgetError, match="exceeds the budget"):
            evolve()


def test_operator_built_once_per_generator_and_truncation(monkeypatch):
    builds = []
    real_hamiltonian = oracle.hamiltonian

    def counting_hamiltonian(gen, layout):
        builds.append((gen, layout))
        return real_hamiltonian(gen, layout)

    monkeypatch.setattr(oracle, "hamiltonian", counting_hamiltonian)
    gen = two_mode_squeezer_generator(0, 1, 2)
    layout = ModeLayout(2, 7)
    state = StateVector.from_occupation(layout, [1, 1])
    first = qfi_fidelity_pure(gen, state)
    assert qfi_fidelity_pure(gen, state) == first
    derivative_states(gen, state).rho2
    exact_unitary(gen, 0.1, layout)
    assert builds == [(gen, layout)]
    qfi_fidelity_pure(gen, StateVector.from_occupation(ModeLayout(2, 8), [1, 1]))
    fresh = two_mode_squeezer_generator(0, 1, 2)
    assert qfi_fidelity_pure(fresh, state) == first
    assert [b[1].cutoff for b in builds] == [7, 8, 7]
    assert builds[2][0] is fresh


def test_kept_operator_norm_and_read_only_shell_mask():
    gen = squeezer_generator(0, 1)
    layout = ModeLayout(1, 6)
    A, norm = oracle._operator(gen, layout)
    assert oracle._operator(gen, layout)[0] is A
    dense = dense_hamiltonian_matrix(gen, layout)
    assert norm == pytest.approx(np.max(np.abs(dense).sum(axis=0)))
    mask = oracle._shell_mask(layout)
    assert oracle._shell_mask(ModeLayout(1, 6)) is mask
    assert not mask.flags.writeable


def test_coherent_state_matches_poisson_amplitudes():
    layout = ModeLayout(1, 30)
    alpha = 1.5 * complex(math.cos(0.3), math.sin(0.3))
    state = coherent_state(layout, 0, alpha)
    expected = np.array(
        [alpha**n / math.sqrt(math.factorial(n)) for n in range(layout.cutoff + 1)]
    )
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(state.to_dense() - expected)) < 1e-14
