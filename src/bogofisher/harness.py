"""Experiment harness: QFI scans, scaling-exponent fits, named example
states, and fixed-energy state optimization.

Scan rows carry three QFI routes side by side: the closed form, the
general first-order projection, and the exact-propagator fidelity
estimate with its error.  CSV output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .bogoliubov import BogoliubovFirstOrder, _json_number
from .errors import ModelFormatError, SupportError
from .fock import (
    ModeLayout,
    ModeSubset,
    StateVector,
    _check_mode,
    _check_mode_pair,
    _lookup,
    average_particle_number,
)
from .perturb import CUTOFF_HEADROOM, transform_first_order, validity_check
from .qfi import (
    DEFAULT_THETA,
    _clamp_nonnegative,
    _complement_reference,
    _pair_and_loss,
    overlap_penalty,
    qfi_fock_closed,
    qfi_pure,
    qfi_two_mode_closed,
)

logger = logging.getLogger(__name__)

CSV_HEADER = "n,m,qfi_closed,qfi_perturb,qfi_oracle,tracing_loss,validity_ratio,cutoff,oracle_err"

DEFAULT_CUTOFF_MARGIN = 6
DEFAULT_SEED = 7
DEFAULT_RESTARTS = 8
DEFAULT_MAX_ITER = 2000
_FIT_MAX_ITER = 1000


@dataclass(frozen=True)
class ScanRow:
    """One scan point with all three QFI routes."""

    n: int
    m: int | None
    qfi_closed: float
    qfi_perturb: float
    qfi_oracle: float
    tracing_loss: float | None
    validity_ratio: float
    cutoff: int
    oracle_err: float


def worker_count(explicit: int | None = None) -> int:
    """Scan threads: ``explicit``, else BOGOFISHER_THREADS, else 1 (GIL-bound)."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("BOGOFISHER_THREADS")
    if env:
        return max(1, int(env))
    return 1


def scan_fock(
    model: BogoliubovFirstOrder,
    k: int,
    n_values: Sequence[int],
    kprime: int | None = None,
    m_values: Sequence[int] | None = None,
    keep: ModeSubset | None = None,
    theta: float = DEFAULT_THETA,
    dtheta: float = 1e-3,
    cutoff: int | None = None,
    threads: int | None = None,
) -> list[ScanRow]:
    """QFI over Fock occupations, one row per scan point.

    Single-mode scans evaluate |n_k>; with ``kprime`` given they evaluate
    |n_k>|m_k'> over the diagonal m = n (default) or the full n x m grid
    when ``m_values`` is supplied.
    """
    from .oracle import generator_from_model, qfi_fidelity_pure

    if kprime is None:
        _check_mode(model.mode_count, k)
    else:
        _check_mode_pair(model.mode_count, k, kprime)
    n_values, max_occ = _scan_values(n_values)
    if kprime is None and m_values is not None:
        raise ValueError("m_values requires kprime")
    if m_values is not None:
        m_values, m_max = _scan_values(m_values)
        max_occ = max(max_occ, m_max)
    if cutoff is None:
        cutoff = max_occ + DEFAULT_CUTOFF_MARGIN
    layout = ModeLayout(model.mode_count, cutoff)
    # Points of one sector share one -iH, built where the first of them meets it.
    generator = generator_from_model(model)
    # Made one at a time, so a serial scan stops at its first failing point.
    if kprime is None:
        points = ((n, None) for n in n_values)
    elif m_values is None:
        points = ((n, n) for n in n_values)
    else:
        points = ((n, m) for n in n_values for m in m_values)

    def evaluate(point: tuple[int, int | None]) -> ScanRow:
        n, m = point
        occ = [0] * model.mode_count
        occ[k] = n
        if m is not None:
            occ[kprime] = m
        state = StateVector.from_occupation(layout, occ)
        if m is None:
            closed = qfi_fock_closed(model, n, k, theta=theta).qfi
        else:
            closed = qfi_two_mode_closed(model, n, k, m, kprime, theta=theta).qfi
        # One transform serves both the pure QFI and the tracing loss.
        pair, loss = _pair_and_loss(model, state, keep)
        perturb_value = qfi_pure(pair)
        estimate = qfi_fidelity_pure(generator, state, dtheta=dtheta)
        ratio, _ = validity_check(theta, perturb_value)
        return ScanRow(
            n=n,
            m=m,
            qfi_closed=closed,
            qfi_perturb=perturb_value,
            qfi_oracle=estimate.value,
            tracing_loss=loss,
            validity_ratio=ratio,
            cutoff=cutoff,
            oracle_err=estimate.error,
        )

    workers = worker_count(threads)
    if workers == 1:
        return [evaluate(point) for point in points]
    # The pool lists every point, so the first runs before it: a truncation
    # past the budget is refused before a long range is listed.
    first = evaluate(next(points))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [first, *pool.map(evaluate, points)]


def _scan_values(values: Sequence[int]) -> tuple[Sequence[int], int]:
    """Checked scan occupations as ints, and the largest.

    A ``range`` is kept as it is and its ends read in O(1), so a long one
    is never listed before the truncation it implies is checked.
    """
    if not isinstance(values, range):
        values = [int(v) for v in values]
    if not values:
        raise ValueError("empty scan range")
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    if min(ends) < 0:
        raise ValueError("occupations must be non-negative")
    return values, max(ends)


def rows_to_csv(rows: Iterable[ScanRow]) -> str:
    """Deterministic CSV rendering (fixed %.12e float formatting)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    "" if row.m is None else str(row.m),
                    _fmt(row.qfi_closed),
                    _fmt(row.qfi_perturb),
                    _fmt(row.qfi_oracle),
                    "" if row.tracing_loss is None else _fmt(row.tracing_loss),
                    _fmt(row.validity_ratio),
                    str(row.cutoff),
                    _fmt(row.oracle_err),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def fit_scaling(
    nbar: Sequence[float],
    qfi: Sequence[float],
    vacuum_term: float = 0.0,
) -> float:
    """Asymptotic scaling exponent of the QFI against average occupation.

    Fits log(qfi - vacuum_term) = log c + p log(nbar) + log(1 + d/nbar +
    e/nbar^2) by least squares; the finite-size correction factors keep
    the exponent estimate from being dragged down by sub-leading terms
    at small occupation.  Pass vacuum_term = 0 to fit raw values.
    Requires at least four points with nbar >= 1.  The fit is a
    Levenberg-Marquardt iteration on the analytic Jacobian, started from
    the straight-line fit of log(qfi) on log(nbar).
    """
    nbar = np.asarray(nbar, dtype=float)
    qfi = np.asarray(qfi, dtype=float)
    if nbar.shape != qfi.shape:
        raise ValueError("nbar and qfi must have equal length")
    mask = nbar >= 1.0
    x = nbar[mask]
    y = qfi[mask] - vacuum_term
    if x.size < 4:
        raise ValueError("need at least four scan points with nbar >= 1")
    if np.any(y <= 0.0):
        raise ValueError("nonpositive values after vacuum-term subtraction")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)

    def residuals(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and their Jacobian in (log c, p, d, e)."""
        log_c, p, d, e = params
        corr = 1.0 + d / x + e / x**2
        clipped = corr <= 1e-12
        corr = np.where(clipped, 1e-12, corr)
        dr_dd = np.where(clipped, 0.0, -1.0 / (x * corr))
        jacobian = np.column_stack([-np.ones_like(x), -lx, dr_dd, dr_dd / x])
        return ly - (log_c + p * lx + np.log(corr)), jacobian

    # Levenberg-Marquardt with Nielsen's damping update (IMM report, 1999).
    params = np.array([intercept, slope, 0.0, 0.0])
    r, jac = residuals(params)
    cost = r @ r
    damping, growth = 1e-3 * float(np.max(np.sum(jac * jac, axis=0))), 2.0
    for _ in range(_FIT_MAX_ITER):
        gradient = jac.T @ r
        step = np.linalg.solve(jac.T @ jac + damping * np.eye(4), -gradient)
        r_trial, jac_trial = residuals(params + step)
        cost_trial = r_trial @ r_trial
        # The decrease the linear model predicts, positive for a nonzero step.
        predicted = step @ (damping * step - gradient)
        gain = (cost - cost_trial) / predicted if predicted > 0.0 else -1.0
        if gain > 0.0:
            small = np.linalg.norm(step) <= 1e-14 * (np.linalg.norm(params) + 1e-14)
            params, r, jac, cost = params + step, r_trial, jac_trial, cost_trial
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
            if small or cost == 0.0:
                break
        elif growth > 2.0**40:
            break
        else:
            damping *= growth
            growth *= 2.0
    return float(params[1])


@dataclass(frozen=True)
class NamedStateReport:
    """QFI summary for one named example state."""

    qfi: float
    penalty: float
    average_n: float
    tracing_loss: float | None


def eval_named_states(
    model: BogoliubovFirstOrder,
    n: int,
    k: int = 0,
    kprime: int = 1,
    keep: ModeSubset | None = None,
    theta: float = DEFAULT_THETA,
) -> dict[str, NamedStateReport]:
    """Evaluate the example two-mode states at occupation scale n.

    Reports the product benchmark |n,n>, the penalty-free three-component
    superposition, the entangled pair state, and a superposition with a
    complex relative phase that exhibits a strictly positive projection
    penalty.  Requires n >= 2.
    """
    if n < 2:
        raise ValueError("named-state evaluation requires n >= 2")
    _check_mode_pair(model.mode_count, k, kprime)
    layout = ModeLayout(model.mode_count, n + 4)
    sqrt2, sqrt3 = math.sqrt(2.0), math.sqrt(3.0)

    def occ(a: int, b: int) -> tuple[int, ...]:
        out = [0] * model.mode_count
        out[k] = a
        out[kprime] = b
        return tuple(out)

    states = {
        "product": StateVector(layout, {occ(n, n): 1.0}),
        "three_component": StateVector(
            layout,
            {
                occ(n, n): 1.0 / sqrt3,
                occ(n, n - 2): 1.0 / sqrt3,
                occ(n, n + 2): 1.0 / sqrt3,
            },
        ),
        "entangled_pair": StateVector(
            layout, {occ(n + 1, n - 1): 1.0 / sqrt2, occ(n - 1, n + 1): 1.0 / sqrt2}
        ),
        "penalty_demo": StateVector(
            layout, {occ(n, n): 1.0 / sqrt2, occ(n + 1, n + 1): 1j / sqrt2}
        ),
    }
    reports = {}
    for name, state in states.items():
        pair, loss = _pair_and_loss(model, state, keep)
        reports[name] = NamedStateReport(
            qfi=qfi_pure(pair),
            penalty=overlap_penalty(pair),
            average_n=average_particle_number(state),
            tracing_loss=loss,
        )
    return reports


@dataclass(frozen=True)
class RestartLog:
    restart: int
    iterations: int
    score: float


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best amplitudes found over the declared support."""

    support: tuple[tuple[int, ...], ...]
    amplitudes: np.ndarray
    qfi: float
    constraint_residual: float
    stationarity_residual: float
    restarts: tuple[RestartLog, ...]


def optimize_state(
    model: BogoliubovFirstOrder,
    support: Sequence[Sequence[int]],
    target_n: float,
    keep: ModeSubset | None = None,
    seed: int = DEFAULT_SEED,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimizationResult:
    """Maximize the (reduced) QFI over amplitudes on a fixed Fock support.

    Limited-memory BFGS (:func:`_lbfgs`, numpy only) over the real and
    imaginary amplitude coordinates x.  Every evaluation maps x onto the
    normalization and mean-occupation constraints in closed form (see
    :func:`_retraction`) and scores the result with the objective compiled
    once per support (see :func:`_support_score`); the gradient is
    analytic and chained through the retraction.  A restart stops when
    max|gradient| <= 1e-9, when a step lowers the objective by at most
    1e-12 relative, when a step no longer moves x, or after ``max_iter``
    iterations.  Restart 0 starts from equal amplitudes, the others from
    seeded normal draws; the score reported for each restart is
    recomputed on the first-order route.  Deterministic for a fixed seed:
    the winner is chosen by score, then lexicographically smallest
    amplitudes.  ``stationarity_residual`` is the gradient norm of the
    retracted objective at the winner, which reports how well it
    converged: a restart may stop on the 1e-12 relative-decrease test
    with a residual far above the 1e-9 gradient stop, so ``qfi`` is
    converged to about 13 significant digits, not to every digit it
    carries.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if len(support) == 0:
        raise SupportError("support must be non-empty")
    try:
        occ = np.array(support, dtype=np.int64, ndmin=2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SupportError(f"support occupations must be integer vectors: {exc}") from exc
    if occ.ndim != 2 or occ.shape[1] != model.mode_count:
        raise SupportError("support occupation length must match the mode count")
    if (occ < 0).any():
        raise SupportError("occupations must be non-negative")
    layout = ModeLayout(model.mode_count, int(occ.max()) + CUTOFF_HEADROOM)
    ranks = layout.ranks_of(occ)
    order = np.argsort(ranks)
    if (ranks[order][1:] == ranks[order][:-1]).any():
        raise SupportError("support contains duplicate occupation vectors")
    totals = occ.sum(axis=1).astype(float)
    if not (totals.min() - 1e-9 <= target_n <= totals.max() + 1e-9):
        raise SupportError(
            f"target average occupation {target_n} outside the feasible range "
            f"[{totals.min()}, {totals.max()}] of the support"
        )
    size = len(occ)

    def score(c: np.ndarray) -> float:
        state = StateVector._from_ranks(layout, ranks[order], c[order], prune=0.0)
        pair, loss = _pair_and_loss(model, state, keep)
        value = qfi_pure(pair)
        if loss is not None:
            value -= loss
        return value

    compiled = _support_score(model, layout, occ, keep)
    retract = _retraction(totals, target_n)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        retracted = retract(x[:size] + 1j * x[size:])
        if retracted is None:
            return 1e9, np.zeros_like(x)
        c, pullback = retracted
        value, grad = compiled(c, gradient=True)
        grad = pullback(grad)
        return -value, -2.0 * np.concatenate([grad.real, grad.imag])

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.ones(size), np.zeros(size)])]
    for _ in range(restarts - 1):
        starts.append(rng.normal(size=2 * size))

    candidates = []
    logs = []
    for index, x0 in enumerate(starts):
        x, iterations = _lbfgs(objective, x0, max_iter)
        retracted = retract(x[:size] + 1j * x[size:])
        if retracted is None:
            continue
        c = _fix_gauge(retracted[0])
        achieved = score(c)
        logs.append(RestartLog(index, iterations, achieved))
        candidates.append((achieved, _lex_key(c), c))
    if not candidates:
        raise SupportError("no feasible amplitudes found on the support")
    candidates.sort(key=lambda item: (-item[0], item[1]))
    best_score, _, best_c = candidates[0]
    residual = abs(
        float(np.sum(np.abs(best_c) ** 2 * totals)) / float(np.sum(np.abs(best_c) ** 2))
        - target_n
    )
    _, grad = objective(np.concatenate([best_c.real, best_c.imag]))
    return OptimizationResult(
        support=tuple(map(tuple, occ.tolist())),
        amplitudes=best_c,
        qfi=best_score,
        constraint_residual=residual,
        stationarity_residual=float(np.linalg.norm(grad)),
        restarts=tuple(logs),
    )


def _support_score(
    model: BogoliubovFirstOrder,
    layout: ModeLayout,
    support: Sequence[Sequence[int]],
    keep: ModeSubset | None,
) -> Callable[..., Any]:
    """The (reduced) first-order QFI on a fixed support as a function of c.

    The first-order map is linear in the amplitudes c over ``support``:
    psi0 = P0 c and psi1 = M c, whose columns are the transforms of the
    support basis states and whose rows are the output occupations.  The
    columns of P0 are unit vectors on the support's own rows, so P0 c is
    a scatter of c and P0^dag a gather.  The QFI is 4(|Mc|^2 - |w|^2)
    with w = <P0c|Mc>.  With ``keep`` the tracing loss 4 sum_g |u_g|^2,
    u_g = sum_{r in g} conj((L c)_r) (Mc)_r, is subtracted: g runs over
    the complement occupations of the rows other than the reference, and
    row r of the 0/1 lift L picks the support state whose kept part is
    that of r.

    ``score(c)`` returns the value; ``score(c, gradient=True)`` returns the
    value and the conjugate gradient d/d conj(c) of that expression:
    4(M^dag psi1 - conj(w) P0^dag psi1 - w M^dag psi0), minus
    4(L^dag (G^T conj(u) * psi1) + M^dag (G^T u * Lc)) with keep, where G is
    the 0/1 row-to-group gather.
    """
    support_occ = np.array(support, dtype=np.int64)
    if keep is not None:
        keep.validate_for(layout)
        support_kept, support_comp = layout.subset_ranks(support_occ, keep)
        reference = _complement_reference(support_comp)
    psi1s = [
        transform_first_order(model, StateVector.from_occupation(layout, occ)).psi1
        for occ in support
    ]
    support_ranks = layout.ranks_of(support_occ)
    rows = np.unique(np.concatenate([support_ranks, *(psi1.ranks for psi1 in psi1s)]))
    own = np.searchsorted(rows, support_ranks)
    m1 = np.zeros((rows.size, len(support)), dtype=np.complex128)
    for j, psi1 in enumerate(psi1s):
        m1[np.searchsorted(rows, psi1.ranks), j] = psi1.amplitudes
    m1_adj = m1.conj().T.copy()

    gather = None
    if keep is not None:
        row_kept, row_comp = layout.subset_ranks(layout.occupations_of(rows), keep)
        # The support shares one complement occupation, so a kept part
        # names at most one support state j.
        order = np.argsort(support_kept)
        pos, found = _lookup(support_kept[order], row_kept)
        # The nonzeros of L: row lift_rows[i] lifts support state lift_cols[i].
        lift_rows = np.flatnonzero(found & (row_comp != reference))
        lift_cols = order[pos[lift_rows]]
        lift_adj = np.zeros((len(support), rows.size), dtype=np.complex128)
        lift_adj[lift_cols, lift_rows] = 1.0
        groups = np.unique(row_comp[row_comp != reference])
        gather = np.zeros((groups.size, rows.size), dtype=np.complex128)
        gather[np.searchsorted(groups, row_comp[lift_rows]), lift_rows] = 1.0

    def score(c: np.ndarray, gradient: bool = False):
        psi0 = np.zeros(rows.size, dtype=np.complex128)
        psi0[own] = c
        psi1 = m1 @ c
        overlap = np.vdot(psi0, psi1)
        value = _clamp_nonnegative(4.0 * (np.vdot(psi1, psi1).real - abs(overlap) ** 2))
        if gather is not None:
            lifted = np.zeros_like(psi0)
            lifted[lift_rows] = c[lift_cols]
            projected = gather @ (lifted.conj() * psi1)
            value -= 4.0 * np.vdot(projected, projected).real
        if not gradient:
            return value
        back = psi1 - overlap * psi0
        grad = -overlap.conjugate() * psi1[own]
        if gather is not None:
            spread = gather.T @ projected
            back -= spread * lifted
            grad -= lift_adj @ (spread.conj() * psi1)
        grad += m1_adj @ back
        return value, 4.0 * grad

    return score


def _retraction(
    totals: np.ndarray, target: float
) -> Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]] | None]:
    """Closed-form map of amplitudes onto c^dag c = 1 and c^dag N c = target.

    With d = N - target per support state, s_L = sum_{d<0} |c|^2 (-d) and
    s_H = sum_{d>0} |c|^2 d, the d<0 block is scaled by sqrt(s_H), the
    d>0 block by sqrt(s_L) and the d=0 block (|d| within the feasibility
    tolerance 1e-9 of :func:`optimize_state`) by (s_L s_H)^(1/4); the
    mean of d is then zero, and normalizing meets
    both constraints.  A feasible c is a fixed point.  When one side is
    empty (the target is the smallest or largest total, or the support
    has one total), or c has weight on neither side, the other side is
    zeroed and the d=0 block normalized.  Returns ``None`` where the map
    is undefined (weight on one side only, or no weight left).

    ``retract(c)`` returns the retracted amplitudes and a pullback that
    maps a conjugate gradient with respect to them to one with respect
    to c.
    """
    offsets = np.asarray(totals, dtype=float) - target
    low = (offsets < -1e-9).astype(float)
    high = (offsets > 1e-9).astype(float)
    zero = 1.0 - low - high
    low_w, high_w = np.abs(offsets) * low, np.abs(offsets) * high
    two_sided = bool(low.any() and high.any())

    def retract(c: np.ndarray):
        weights = c.real**2 + c.imag**2
        s_low, s_high = float(weights @ low_w), float(weights @ high_w)
        general = two_sided and s_low > 0.0 and s_high > 0.0
        if general:
            root_low, root_high = math.sqrt(s_low), math.sqrt(s_high)
            root_zero = math.sqrt(root_low * root_high)
            scale = root_high * low + root_low * high + root_zero * zero
        elif two_sided and (s_low > 0.0 or s_high > 0.0):
            return None
        else:
            scale = zero
        v = scale * c
        norm = math.sqrt(float(np.vdot(v, v).real))
        if norm == 0.0:
            return None
        y = v / norm

        def pullback(grad: np.ndarray) -> np.ndarray:
            kappa = np.vdot(grad, y).real
            out = scale * (grad - kappa * y) / norm
            if general:
                # d/d|c_j|^2 through s_L and s_H: tau_k is the sensitivity
                # of the objective to scale_k.
                tau = (2.0 / norm) * (grad.conj() * c).real
                tau -= (2.0 * kappa / norm**2) * weights * scale
                t_zero = root_zero * float(tau @ zero) / 4.0
                per_low = (root_low * float(tau @ high) / 2.0 + t_zero) / s_low
                per_high = (root_high * float(tau @ low) / 2.0 + t_zero) / s_high
                out = out + (per_low * low_w + per_high * high_w) * c
            return out

        return y, pullback

    return retract


def _lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray, max_iter: int
) -> tuple[np.ndarray, int]:
    """Minimize ``fun`` (value and gradient) from ``x0`` by limited-memory BFGS.

    The two-loop recursion over the last 10 pairs (s, y) with s^T y > 0,
    scaled by s^T y / y^T y (the first step by 1 / max(1, |g|)), restarted
    from steepest descent when its direction does not descend.  Each step
    backtracks from t = 1 until the Armijo condition with c1 = 1e-4 holds,
    the next trial the minimizer of the quadratic through f, f'(0) and the
    failed value, kept in [0.1 t, 0.5 t]; a large value where the
    objective is undefined fails like any other.  Stops when max|g| <=
    1e-9, when a step lowers f by at most 1e-12 max(|f|, |f_new|, 1), after
    ``max_iter`` steps, or when a step no longer moves x.  Returns x and
    the number of steps taken.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1 / s^T y), oldest first
    for iteration in range(max_iter):
        if abs(g).max() <= 1e-9:
            return x, iteration
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d = d / (rho * (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        if not (pairs and g @ d < 0.0):
            pairs = []
            d = -g / max(1.0, math.sqrt(g @ g))
        slope = float(g @ d)
        t = 1.0
        while True:
            x_new = x + t * d
            if (x_new == x).all():
                return x, iteration
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            trial = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = min(0.5 * t, max(0.1 * t, trial))  # a NaN trial gives 0.1 t
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs = pairs[-9:] + [(s, y, 1.0 / sy)]
        converged = f - f_new <= 1e-12 * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if converged:
            return x, iteration + 1
    return x, max_iter


def _fix_gauge(c: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-modulus amplitude is real positive."""
    idx = int(np.argmax(np.abs(c)))
    pivot = c[idx]
    if abs(pivot) == 0.0:
        return c
    return c * (abs(pivot) / pivot)


def _lex_key(c: np.ndarray) -> tuple:
    return tuple(float(v) for pair in zip(c.real, c.imag) for v in pair)


def load_state_document(doc: Any, layout: ModeLayout) -> StateVector:
    """Parse a state document: a JSON list of {"occ": [...], "re": x, "im": y}.

    Normalization is enforced at 1e-9; in-tolerance deviations are
    renormalized exactly and logged.
    """
    return _load_state(doc, layout.mode_count, layout.cutoff)


def _load_state(doc: Any, mode_count: int, cutoff: int | None) -> StateVector:
    """:func:`load_state_document`; no cutoff means largest occupation + DEFAULT_CUTOFF_MARGIN."""
    if not isinstance(doc, list) or not doc:
        raise ModelFormatError("state document must be a non-empty JSON list")
    if not set(map(type, doc)) <= {dict} or not set().union(*doc) <= {"occ", "re", "im"}:
        raise ModelFormatError('state entries must be objects with keys "occ", "re", "im"')
    rows = [entry.get("occ") for entry in doc]
    occ, layout = _occupations(rows, mode_count, "state", cutoff, DEFAULT_CUTOFF_MARGIN)
    amplitudes = np.empty(len(doc), dtype=np.complex128)
    for key, part in (("re", amplitudes.real), ("im", amplitudes.imag)):
        values = [entry.get(key, 0.0) for entry in doc]  # 0 when omitted
        if not set(map(type, values)) <= {float}:
            values = [_json_number(value, f'state "{key}"') for value in values]
        part[:] = values
        if not np.isfinite(part).all():
            bad = part[~np.isfinite(part)][0]
            raise ModelFormatError(f'state "{key}" must be finite, got {bad}')
    ranks = layout.ranks_of(occ)
    order = np.argsort(ranks)
    state = StateVector._from_ranks(layout, ranks[order], amplitudes[order], prune=0.0)
    norm = state.norm()
    if abs(norm * norm - 1.0) > 1e-9:
        raise ModelFormatError(f"state norm^2 = {norm * norm:.12f} deviates from 1 beyond 1e-09")
    if abs(norm - 1.0) > 1e-15:
        logger.info("renormalizing input state (norm deviation %.3e)", norm - 1.0)
        state = state.scaled(1.0 / norm)
    return state


def load_support_document(doc: Any, mode_count: int) -> np.ndarray:
    """Parse a support document, a JSON list of occupation lists, as an int64 array."""
    if not isinstance(doc, list) or not doc:
        raise ModelFormatError("support document must be a non-empty JSON list")
    return _occupations(doc, mode_count, "support", None, CUTOFF_HEADROOM)[0]


def _occupations(
    rows: list, mode_count: int, what: str, cutoff: int | None, margin: int
) -> tuple[np.ndarray, ModeLayout]:
    """Distinct, in-cutoff, non-negative JSON integer rows as an (n, M) int64 array.

    Returns it with its layout (``cutoff``, else the largest occupation plus
    ``margin``), built first so that an occupation past int64 fails there.
    """
    from itertools import chain

    # A row that is not a list fails the integer test through the [None].
    flat = list(chain.from_iterable(rows)) if set(map(type, rows)) <= {list} else [None]
    if not set(map(type, flat)) <= {int}:  # refuses bool and 1.0 too
        raise ModelFormatError(f"{what} occupations must be lists of integers")
    width = next((len(row) for row in rows if len(row) != mode_count), None)
    if width is not None:
        raise ModelFormatError(
            f"{what} occupation length {width} does not match {mode_count} modes"
        )
    if min(flat) < 0:
        bad = next(tuple(row) for row in rows if min(row) < 0)
        raise ModelFormatError(f"negative occupation in {bad}")
    layout = ModeLayout(mode_count, max(flat) + margin if cutoff is None else cutoff)
    if max(flat) > layout.cutoff:
        bad = next(tuple(row) for row in rows if max(row) > layout.cutoff)
        raise ModelFormatError(f"occupation {bad} exceeds cutoff {layout.cutoff}")
    occ = np.array(flat, dtype=np.int64).reshape(len(rows), mode_count)
    ranks = layout.ranks_of(occ)
    order = np.argsort(ranks, kind="stable")
    repeats = order[1:][ranks[order[1:]] == ranks[order[:-1]]]  # later entries of a twin
    if repeats.size:
        bad = tuple(rows[repeats.min()])
        raise ModelFormatError(f"duplicate {what} entry for occupation {bad}")
    return occ, layout
