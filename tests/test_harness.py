"""Harness: scans, CSV rendering, scaling fits, named states, optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogofisher import (
    BogoliubovFirstOrder,
    ModeLayout,
    ModeSubset,
    StateVector,
    SupportError,
    beam_splitter,
    eval_named_states,
    fit_scaling,
    optimize_state,
    qfi_pure,
    rows_to_csv,
    scan_fock,
    single_mode_squeezer,
    transform_first_order,
    tracing_loss,
    two_mode_squeezer,
    vacuum_qfi,
)
from bogofisher import harness, qfi
from bogofisher.harness import _lbfgs, _retraction, _support_score, worker_count

from helpers import dual_bound, random_model, rephased


def test_scan_single_mode_squeezer_values():
    rows = scan_fock(single_mode_squeezer(0, 1), 0, range(0, 7))
    expected = [2 * (n * n + n + 1) for n in range(0, 7)]
    for row, want in zip(rows, expected):
        assert row.qfi_closed == pytest.approx(want, abs=1e-10)
        assert abs(row.qfi_closed - row.qfi_perturb) < 1e-10
        assert abs(row.qfi_oracle - row.qfi_closed) <= 10 * row.oracle_err + 1e-9
        assert row.m is None
        assert row.cutoff == 12


def test_scan_null_model_zeros():
    null = BogoliubovFirstOrder(np.ones(1), np.zeros((1, 1)), np.zeros((1, 1)))
    rows = scan_fock(null, 0, range(0, 5))
    for row in rows:
        assert row.qfi_closed == 0.0
        assert row.qfi_perturb == 0.0
        assert abs(row.qfi_oracle) < 1e-9


def test_scan_two_mode_diagonal():
    rows = scan_fock(two_mode_squeezer(0, 1, 2), 0, range(0, 5), kprime=1)
    expected = [4, 20, 52, 100, 164]
    for row, want in zip(rows, expected):
        assert row.m == row.n
        assert row.qfi_closed == pytest.approx(want, abs=1e-10)
        assert abs(row.qfi_closed - row.qfi_perturb) < 1e-10


def test_scan_grid_beam_splitter():
    rows = scan_fock(
        beam_splitter(0, 1, 2), 0, range(0, 3), kprime=1, m_values=range(0, 3)
    )
    assert len(rows) == 9
    for row in rows:
        want = 8 * row.n * row.m + 4 * row.n + 4 * row.m
        assert row.qfi_closed == pytest.approx(want, abs=1e-10)


def test_scan_with_keep_column():
    model = BogoliubovFirstOrder(
        np.ones(2), np.zeros((2, 2)), np.diag([1.0, 0.5]).astype(complex)
    )
    rows = scan_fock(model, 0, range(0, 3), keep=ModeSubset.of([0]))
    for row in rows:
        assert row.tracing_loss == pytest.approx(0.5, abs=1e-12)


def test_csv_shape_and_determinism():
    rows = scan_fock(single_mode_squeezer(0, 1), 0, range(0, 4))
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "n,m,qfi_closed,qfi_perturb,qfi_oracle,tracing_loss,"
        "validity_ratio,cutoff,oracle_err"
    )
    assert len(lines) == 5
    again = rows_to_csv(scan_fock(single_mode_squeezer(0, 1), 0, range(0, 4)))
    assert text == again


def test_csv_stable_across_thread_counts():
    model = single_mode_squeezer(0, 1)
    one = rows_to_csv(scan_fock(model, 0, range(0, 5), threads=1))
    four = rows_to_csv(scan_fock(model, 0, range(0, 5), threads=4))
    assert one == four


def test_scan_threads_default_and_env(monkeypatch):
    monkeypatch.delenv("BOGOFISHER_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("BOGOFISHER_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(2) == 2


def test_fit_scaling_quadratic_family():
    ns = np.arange(1, 9)
    exponent = fit_scaling(ns, 2.0 * ns * (ns + 1))
    assert 1.9 <= exponent <= 2.01


def test_fit_scaling_linear_table():
    ns = np.arange(1, 9)
    exponent = fit_scaling(ns, 7.0 * ns)
    assert exponent == pytest.approx(1.0, abs=1e-6)


def test_fit_scaling_subtracts_vacuum():
    ns = np.arange(0, 9)
    qfi = 2.0 * (ns * ns + ns + 1)
    exponent = fit_scaling(ns, qfi, vacuum_term=2.0)
    assert 1.9 <= exponent <= 2.01


def test_fit_scaling_errors():
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3, 4], [1.0, 2.0, 3.0, 0.5], vacuum_term=1.0)


def test_named_states_two_mode_squeezer():
    model = two_mode_squeezer(0, 1, 2)
    n = 4
    reports = eval_named_states(model, n)
    assert reports["product"].qfi == pytest.approx(8 * n * (n + 1) + 4)
    assert reports["product"].average_n == pytest.approx(2 * n)
    # the three-component state keeps the product value: no cross terms
    assert reports["three_component"].qfi == pytest.approx(8 * n * n + 8 * n + 4)
    assert reports["three_component"].penalty == pytest.approx(0.0, abs=1e-12)
    assert reports["entangled_pair"].qfi == pytest.approx(8 * n * n + 8 * n - 4)
    assert reports["penalty_demo"].penalty == pytest.approx((n + 1) ** 2)
    assert reports["penalty_demo"].penalty > 0.0


def test_named_states_entangled_scaling():
    model = two_mode_squeezer(0, 1, 2)
    nbars, values = [], []
    for n in range(2, 7):
        reports = eval_named_states(model, n)
        nbars.append(reports["entangled_pair"].average_n)
        values.append(reports["entangled_pair"].qfi)
    exponent = fit_scaling(nbars, values, vacuum_term=vacuum_qfi(model))
    assert exponent >= 1.9


def test_named_states_requires_n_at_least_two():
    with pytest.raises(ValueError):
        eval_named_states(two_mode_squeezer(0, 1, 2), 1)


def test_named_states_tracing_loss_column():
    model = two_mode_squeezer(0, 1, 3)
    reports = eval_named_states(model, 2, keep=ModeSubset.of([0, 1]))
    assert reports["entangled_pair"].tracing_loss == pytest.approx(0.0, abs=1e-12)


def test_optimize_single_support_point():
    model = two_mode_squeezer(0, 1, 2)
    result = optimize_state(model, [(2, 2)], 4.0, restarts=2, max_iter=300)
    assert result.qfi == pytest.approx(52.0, abs=1e-9)
    assert abs(result.amplitudes[0]) == pytest.approx(1.0)
    assert result.constraint_residual < 1e-8


def test_optimize_beats_uniform_three_component():
    # model with both exchange and cross-squeezing but no diagonal squeezing
    alpha1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    beta1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = BogoliubovFirstOrder(np.ones(2), alpha1, beta1)
    n = 3
    support = [(n, n), (n, n - 2), (n, n + 2)]
    layout = ModeLayout(2, n + 4)
    uniform = StateVector(
        layout, {occ: 1.0 / math.sqrt(3.0) for occ in support}
    )
    uniform_qfi = qfi_pure(transform_first_order(model, uniform))
    result = optimize_state(model, support, 2.0 * n, restarts=4, max_iter=800)
    assert result.qfi >= uniform_qfi - 1e-9
    assert result.constraint_residual < 1e-8


def test_optimize_avoids_one_excitation_penalty():
    model = beam_splitter(0, 1, 2)
    n = 2
    support = [(n, n + 1), (n + 1, n)]
    layout = ModeLayout(2, n + 3)
    uniform = StateVector(
        layout, {occ: 1.0 / math.sqrt(2.0) for occ in support}
    )
    uniform_qfi = qfi_pure(transform_first_order(model, uniform))
    result = optimize_state(
        model, support, 2 * n + 1, restarts=4, max_iter=800
    )
    assert result.qfi >= uniform_qfi - 1e-9


def test_optimize_with_keep_objective():
    model = two_mode_squeezer(0, 1, 3)
    result = optimize_state(
        model, [(1, 1, 0), (2, 0, 0)], 2.0, keep=ModeSubset.of([0, 1]),
        restarts=2, max_iter=400,
    )
    assert result.qfi > 0.0


def test_optimize_deterministic():
    model = two_mode_squeezer(0, 1, 2)
    support = [(2, 2), (2, 0), (2, 4)]
    a = optimize_state(model, support, 4.0, restarts=3, max_iter=300)
    b = optimize_state(model, support, 4.0, restarts=3, max_iter=300)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.qfi == b.qfi


def test_optimize_infeasible_target():
    model = two_mode_squeezer(0, 1, 2)
    with pytest.raises(SupportError, match="outside the feasible range"):
        optimize_state(model, [(1, 1), (2, 2)], 9.0)


def test_optimize_rejects_bad_support():
    model = two_mode_squeezer(0, 1, 2)
    with pytest.raises(SupportError):
        optimize_state(model, [(1, 1), (1, 1)], 2.0)
    with pytest.raises(SupportError):
        optimize_state(model, [(1, 1, 0)], 2.0)


# (modes, kept modes or None, support); supports under a keep share one
# complement occupation, as tracing losses require.
COMPILED_CASES = [
    (2, None, [(0, 1), (1, 1), (2, 0)]),
    (2, (0,), [(0, 2), (1, 2), (3, 2), (4, 2)]),
    (3, None, [(0, 0, 1), (1, 2, 0), (2, 1, 1), (0, 3, 0), (1, 0, 2)]),
    (3, (0, 1), [(0, 0, 1), (1, 0, 1), (2, 1, 1), (0, 2, 1), (1, 3, 1), (3, 3, 1)]),
    (3, (1,), [(2, 0, 1), (2, 1, 1), (2, 3, 1)]),
]


@pytest.mark.parametrize("modes,kept,support", COMPILED_CASES)
def test_support_score_matches_first_order_route(modes, kept, support):
    rng = np.random.default_rng([modes, len(support)])
    model = rephased(random_model(rng, modes), rng.uniform(0.0, 2.0 * math.pi, modes))
    assert not np.allclose(model.G, 1.0)
    layout = ModeLayout(modes, max(max(occ) for occ in support) + 2)
    keep = None if kept is None else ModeSubset.of(kept)
    compiled = _support_score(model, layout, tuple(support), keep)
    for _ in range(20):
        c = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        c /= np.linalg.norm(c)
        state = StateVector(layout, dict(zip(support, c)), prune=0.0)
        want = qfi_pure(transform_first_order(model, state))
        if keep is not None:
            want -= tracing_loss(model, state, keep)
        assert abs(compiled(c) - want) <= 1e-12 * max(1.0, abs(want))


def test_optimize_keep_rejects_varying_complement_before_minimize(monkeypatch):
    def no_minimize(*args, **kwargs):
        raise AssertionError("minimize ran on an invalid support")

    monkeypatch.setattr(harness, "_lbfgs", no_minimize)
    model = two_mode_squeezer(0, 1, 3)
    with pytest.raises(SupportError, match="complement occupation varies"):
        optimize_state(
            model, [(1, 1, 0), (2, 0, 1)], 2.0, keep=ModeSubset.of([0, 1])
        )


@pytest.mark.parametrize("kept", [None, (0, 1)])
def test_optimize_transforms_once_per_support_state(monkeypatch, kept):
    calls = []
    original = harness.transform_first_order

    def counted(model, state):
        calls.append(len(state))
        return original(model, state)

    monkeypatch.setattr(harness, "transform_first_order", counted)
    monkeypatch.setattr(qfi, "transform_first_order", counted)
    rng = np.random.default_rng(11)
    model = rephased(random_model(rng, 3), rng.uniform(0.0, 2.0 * math.pi, 3))
    support = [(0, 1, 2), (1, 1, 2), (2, 0, 2), (3, 2, 2)]
    keep = None if kept is None else ModeSubset.of(kept)
    restarts = 3
    optimize_state(model, support, 4.0, keep=keep, restarts=restarts, max_iter=200)
    assert len(calls) <= len(support) + 2 * restarts


def _compiled_case(modes, kept, support, use_keep):
    rng = np.random.default_rng([modes, len(support), 7])
    model = rephased(random_model(rng, modes), rng.uniform(0.0, 2.0 * math.pi, modes))
    layout = ModeLayout(modes, max(max(occ) for occ in support) + 2)
    keep = ModeSubset.of(kept) if use_keep else None
    return rng, model, layout, keep


def _real_gradient(conj_grad):
    # d/dx of a real function of c = x[:S] + i x[S:] from its d/d conj(c).
    return 2.0 * np.concatenate([conj_grad.real, conj_grad.imag])


def _central_differences(f, x, step=1e-6):
    return np.array(
        [(f(x + step * e) - f(x - step * e)) / (2.0 * step) for e in np.eye(x.size)]
    )


def _keep_variants():
    for modes, kept, support in COMPILED_CASES:
        yield modes, kept, support, False
        if kept is not None:
            yield modes, kept, support, True


@pytest.mark.parametrize("modes,kept,support,use_keep", list(_keep_variants()))
def test_support_score_gradient_matches_central_differences(modes, kept, support, use_keep):
    rng, model, layout, keep = _compiled_case(modes, kept, support, use_keep)
    compiled = _support_score(model, layout, tuple(support), keep)
    size = len(support)
    for _ in range(3):
        x = rng.normal(size=2 * size)
        x /= np.linalg.norm(x)
        _, grad = compiled(x[:size] + 1j * x[size:], gradient=True)
        want = _central_differences(lambda y: compiled(y[:size] + 1j * y[size:]), x)
        assert np.linalg.norm(_real_gradient(grad) - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("modes,kept,support,use_keep", list(_keep_variants()))
def test_retracted_score_gradient_matches_central_differences(modes, kept, support, use_keep):
    rng, model, layout, keep = _compiled_case(modes, kept, support, use_keep)
    compiled = _support_score(model, layout, tuple(support), keep)
    totals = np.array([float(sum(occ)) for occ in support])
    size = len(support)
    # The median puts support states at the target itself in most cases.
    for target in (totals.mean(), np.median(totals), totals.min(), totals.max()):
        retract = _retraction(totals, target)

        def objective(x):
            return compiled(retract(x[:size] + 1j * x[size:])[0])

        x = rng.normal(size=2 * size)
        c, pullback = retract(x[:size] + 1j * x[size:])
        _, grad = compiled(c, gradient=True)
        got = _real_gradient(pullback(grad))
        want = _central_differences(objective, x)
        # At an edge target with one state at that total the objective is
        # constant; the floor covers the rounding of the differences there.
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want) + 1e-7


# (support totals, target): interior targets, targets at the smallest and
# largest total (with and without states at the target itself), and a
# support with a single total.
RETRACTION_CASES = [
    ([0, 1, 2, 4, 5], 2.5),
    ([1, 2, 2, 3, 6], 2.0),
    ([3, 5, 5, 7], 5.0),
    ([2, 2, 4, 6], 2.0),
    ([2, 4, 6, 6], 6.0),
    ([1, 3], 1.0),
    ([1, 3], 3.0),
    ([4, 4, 4], 4.0),
]


@pytest.mark.parametrize("totals,target", RETRACTION_CASES)
def test_retraction_meets_both_constraints(totals, target):
    totals = np.array(totals, dtype=float)
    retract = _retraction(totals, target)
    rng = np.random.default_rng(len(totals))
    for _ in range(50):
        c, _ = retract(rng.normal(size=totals.size) + 1j * rng.normal(size=totals.size))
        weights = np.abs(c) ** 2
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert abs(weights @ totals - target) <= 1e-12 * max(1.0, target)
        # A feasible point is a fixed point.
        again, _ = retract(c)
        assert np.max(np.abs(again - c)) <= 1e-15


def test_retraction_is_undefined_with_weight_on_one_side_only():
    retract = _retraction(np.array([1.0, 2.0, 3.0]), 2.0)
    assert retract(np.array([1.0, 0.0, 0.0], dtype=complex)) is None
    assert retract(np.array([0.0, 0.0, 0.0], dtype=complex)) is None
    c, _ = retract(np.array([0.0, 2.0j, 0.0]))
    assert np.array_equal(c, np.array([0.0, 1.0j, 0.0]))


@pytest.mark.parametrize("modes,kept,support,use_keep", list(_keep_variants()))
def test_optimize_first_restart_not_below_its_start(modes, kept, support, use_keep):
    _, model, layout, keep = _compiled_case(modes, kept, support, use_keep)
    totals = np.array([float(sum(occ)) for occ in support])
    target = float(totals.mean())
    start, _ = _retraction(totals, target)(np.ones(len(support), dtype=complex))
    state = StateVector(layout, dict(zip(map(tuple, support), start)), prune=0.0)
    start_score = qfi_pure(transform_first_order(model, state))
    if keep is not None:
        start_score -= tracing_loss(model, state, keep)
    result = optimize_state(model, support, target, keep=keep, restarts=1, max_iter=200)
    assert result.restarts[0].score >= start_score - 1e-12 * max(1.0, start_score)
    assert result.constraint_residual <= 1e-12
    assert 0.0 <= result.stationarity_residual <= 1e-4 * max(1.0, result.qfi)


def _spd_quadratic(seed, size=8, curvature=(1.0, 10.0)):
    """(x - x*)^T A (x - x*) / 2 with the eigenvalues of A drawn from ``curvature``."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
    matrix = basis @ np.diag(rng.uniform(*curvature, size)) @ basis.T
    minimum = rng.normal(size=size)

    def fun(x):
        grad = matrix @ (x - minimum)
        return 0.5 * (x - minimum) @ grad, grad

    return fun, rng.normal(size=size)


def test_lbfgs_reaches_the_gradient_tolerance_on_a_quadratic():
    # At curvature 1e-6 a step still lowers f by more than 1e-12 when
    # max|g| reaches 1e-9, so the gradient rule, not the decrease rule, stops it.
    for seed in range(5):
        fun, x0 = _spd_quadratic(seed, curvature=(1e-6, 1e-5))
        x, iterations = _lbfgs(fun, x0, 200)
        assert np.max(np.abs(fun(x)[1])) <= 1e-9
        assert 0 < iterations < 200


def test_lbfgs_honours_max_iter():
    fun, x0 = _spd_quadratic(7)
    x, iterations = _lbfgs(fun, x0, 1)
    assert iterations == 1
    assert fun(x)[0] < fun(x0)[0]
    assert np.max(np.abs(fun(x)[1])) > 1e-9


@pytest.mark.parametrize("offset,steps", [(1e6, 1), (0.0, 50)])
def test_lbfgs_stops_on_a_relative_decrease_of_1e_12(offset, steps):
    # A steady slope of 1e-4 never meets the gradient tolerance; each step
    # lowers f by 4e-8, which is at most 1e-12 |f| only at the large offset.
    slope = np.full(4, 1e-4)
    x, iterations = _lbfgs(lambda x: (offset + slope @ x, slope), np.zeros(4), 50)
    assert iterations == steps


def test_lbfgs_backs_off_where_the_objective_is_undefined():
    # Minimum at 3 behind a wall at 2, reported as the sentinel value 1e9.
    def fun(x):
        if x[0] >= 2.0:
            return 1e9, np.zeros(1)
        return (x[0] - 3.0) ** 2, 2.0 * (x - 3.0)

    x, _ = _lbfgs(fun, np.zeros(1), 100)
    assert 1.99 < x[0] < 2.0


def test_lbfgs_is_deterministic():
    fun, x0 = _spd_quadratic(3, size=12)
    first, second = _lbfgs(fun, x0, 100), _lbfgs(fun, x0, 100)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1] == second[1]


def _random_support(rng, modes, size):
    while True:
        support = sorted({tuple(map(int, rng.integers(0, 4, size=modes))) for _ in range(size)})
        totals = [sum(occ) for occ in support]
        if len(support) == size and min(totals) < max(totals):
            return support, 0.5 * (min(totals) + max(totals))


def _assert_certified(model, support, target, result):
    bound = dual_bound(model, support, target, result.amplitudes)
    assert result.qfi <= bound * (1.0 + 1e-12)
    assert result.qfi >= bound * (1.0 - 1e-6)


@pytest.mark.parametrize("case", range(20))
def test_optimize_meets_the_dual_bound_on_random_models(case):
    rng = np.random.default_rng([31, case])
    modes, size = 2 + case % 2, 3 + case % 4
    model = rephased(random_model(rng, modes), rng.uniform(0.0, 2.0 * math.pi, modes))
    assert not np.allclose(model.G, 1.0)
    support, target = _random_support(rng, modes, size)
    _assert_certified(model, support, target, optimize_state(model, support, target))


@pytest.mark.parametrize("nbar", [1, 2, 3, 4])
def test_optimize_meets_the_dual_bound_on_full_beam_splitter_supports(nbar):
    model = beam_splitter(0, 1, 2)
    support = [(a, b) for a in range(2 * nbar + 1) for b in range(2 * nbar + 1 - a)]
    result = optimize_state(model, support, float(nbar), restarts=2)
    _assert_certified(model, support, nbar, result)


def test_optimize_meets_the_dual_bound_on_the_45_state_squeezer_support():
    model = two_mode_squeezer(0, 1, 3)
    support = [(a, b, 0) for a in range(9) for b in range(9 - a)]
    target = sum(map(sum, support)) / len(support)
    _assert_certified(model, support, target, optimize_state(model, support, target, restarts=2))


@st.composite
def _state_documents(draw):
    """A layout and a shuffled, normalized state document on it."""
    modes = draw(st.integers(1, 4))
    cutoff = draw(st.integers(0, 4))
    occs = draw(
        st.lists(
            st.tuples(*[st.integers(0, cutoff)] * modes), min_size=1, max_size=12, unique=True
        )
    )
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in occs])
    norm = float(np.linalg.norm(amps))
    if norm < 1e-3:
        amps, norm = np.ones(len(occs), dtype=complex), math.sqrt(len(occs))
    amps = amps / norm
    doc = [
        {"occ": list(occ), "re": float(c.real), "im": float(c.imag)}
        for occ, c in zip(occs, amps)
    ]
    order = draw(st.permutations(range(len(doc))))
    return ModeLayout(modes, cutoff), [doc[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(_state_documents())
def test_load_state_document_matches_dict_constructor(case):
    layout, doc = case
    got = harness.load_state_document(doc, layout)
    want = StateVector(
        layout,
        {tuple(entry["occ"]): complex(entry["re"], entry["im"]) for entry in doc},
        prune=0.0,
    )
    norm = want.norm()
    if abs(norm - 1.0) > 1e-15:
        want = want.scaled(1.0 / norm)
    assert got.layout == layout
    assert got.ranks.tobytes() == want.ranks.tobytes()
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
