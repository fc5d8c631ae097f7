"""Brute-force ground truth on the truncated Fock space.

A quadratic Hermitian Hamiltonian

    H = sum_mn h_mn a_m^dag a_n
      + (1/2) sum_pq g_pq a_p^dag a_q^dag + (1/2) sum_pq conj(g_pq) a_p a_q

generates the exact propagator U(theta) = exp(-i theta H).  H is built
as a sparse matrix on the truncated basis once per generator and
truncation (see ``GeneratorSpec``), and its action on a state vector is
computed by ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham,
"Computing the action of the matrix exponential", SIAM J. Sci. Comput.
2011).  Everything downstream is obtained nonperturbatively:
fidelity-based QFI with Richardson extrapolation, Uhlmann fidelity for
reduced states, finite-difference state and density-operator
derivatives, and Bogoliubov coefficients from the classical 2M x 2M
mode-transformation exponential.

Convention pinned here and mirrored by the perturbative module: the
mode operators transform as a_m -> U^dag a_m U, so the single-mode
squeezing Hamiltonian i(a^2 - a^dag^2)/2 has alpha_kk = cosh(theta),
beta_kk = sinh(theta).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .bogoliubov import BogoliubovFirstOrder
from .errors import BudgetError, ModelFormatError
from .fock import DensityOperator, ModeLayout, ModeSubset, StateVector
from .perturb import build_generator

DEFAULT_DTHETA_FIRST = 1e-4
DEFAULT_DTHETA_SECOND = 1e-3
DEFAULT_DTHETA_FIDELITY = 1e-3
SHELL_BUDGET = 1e-10
# One dense complex matrix of this dimension takes 268 MB; expm holds several.
EXACT_UNITARY_DIM_BUDGET = 4096
# Largest |stop - start| * ||H||_1 of one sweep.  The cost of expm_multiply
# grows linearly in it; the oracle's finite-difference steps need about 1.
SWEEP_NORM_BUDGET = 1e3

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Coefficients of a quadratic Hermitian Hamiltonian.

    ``h`` is the Hermitian number-conserving block, ``g`` the symmetric
    pair-creation block (its conjugate closes the Hermitian form).

    The sparse operator -iH of each truncation, with its 1-norm, is built
    on first use and kept on the instance, keyed by (mode_count, cutoff),
    so every oracle call of one command on one truncation shares one
    build.  ``h`` and ``g`` are read-only copies made here, so a kept
    operator cannot go stale.
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=np.complex128)
        g = np.array(self.g, dtype=np.complex128)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape != g.shape:
            raise ValueError("h and g must be square matrices of equal dimension")
        scale_h = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
        if float(np.max(np.abs(h - h.conj().T))) > _HERMITIAN_TOL * scale_h:
            raise ValueError("h block must be Hermitian")
        scale_g = max(1.0, float(np.max(np.abs(g))) if g.size else 1.0)
        if float(np.max(np.abs(g - g.T))) > _HERMITIAN_TOL * scale_g:
            raise ValueError("g block must be symmetric")
        for arr in (h, g):
            arr.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_operators", {})

    @property
    def mode_count(self) -> int:
        return int(self.h.shape[0])


@dataclass(frozen=True, eq=False)
class ExactUnitary:
    """Dense propagator at one parameter value, with quality monitors.

    ``unitarity_residual`` is the worst column-norm deviation from 1;
    ``shell_coupling`` bounds the amplitude the propagator moves from
    interior states into the two boundary levels of the cutoff.
    """

    matrix: np.ndarray
    theta: float
    layout: ModeLayout
    unitarity_residual: float
    shell_coupling: float


def squeezer_generator(k: int, mode_count: int, strength: float = 1.0) -> GeneratorSpec:
    """H = strength * i(a_k^2 - a_k^dag^2)/2; beta_kk = sinh(strength*theta)."""
    g = np.zeros((mode_count, mode_count), dtype=np.complex128)
    g[k, k] = -1j * strength
    return GeneratorSpec(np.zeros((mode_count, mode_count)), g)


def two_mode_squeezer_generator(k: int, kprime: int, mode_count: int) -> GeneratorSpec:
    """H = i(a_k a_k' - a_k^dag a_k'^dag); beta_kk' = beta_k'k = sinh(theta)."""
    if k == kprime:
        raise ValueError("the two modes must be distinct")
    g = np.zeros((mode_count, mode_count), dtype=np.complex128)
    g[k, kprime] = -1j
    g[kprime, k] = -1j
    return GeneratorSpec(np.zeros((mode_count, mode_count)), g)


def beam_splitter_generator(k: int, kprime: int, mode_count: int) -> GeneratorSpec:
    """H = i(a_k^dag a_k' - a_k a_k'^dag); alpha1_kk' = 1, alpha1_k'k = -1."""
    if k == kprime:
        raise ValueError("the two modes must be distinct")
    h = np.zeros((mode_count, mode_count), dtype=np.complex128)
    h[k, kprime] = 1j
    h[kprime, k] = -1j
    return GeneratorSpec(h, np.zeros((mode_count, mode_count)))


def independent_squeezers_generator(strengths) -> GeneratorSpec:
    """One diagonal squeezer per mode with the given strengths."""
    strengths = np.asarray(strengths, dtype=float)
    g = np.diag(-1j * strengths).astype(np.complex128)
    return GeneratorSpec(np.zeros_like(g), g)


def generator_from_model(model: BogoliubovFirstOrder) -> GeneratorSpec:
    """Quadratic Hamiltonian whose propagator realizes a trivial-phase model.

    Only models with G identically 1 admit a single-generator propagator
    (U(0) must be the identity); then H = iK with K the first-order
    generator of the perturbative module.
    """
    K = build_generator(model)  # validates the model
    if float(np.max(np.abs(model.G - 1.0))) > 1e-9:
        raise ModelFormatError(
            "oracle generator requires trivial free-evolution phases (G = 1)"
        )
    return GeneratorSpec(1j * K.number, 1j * K.pair_create)


def hamiltonian(gen: GeneratorSpec, layout: ModeLayout) -> scipy.sparse.csr_matrix:
    """Sparse truncated realization P H P of the quadratic Hamiltonian.

    Entries come from occupation arithmetic on the lexicographic basis: a
    hop from mode n to mode m moves the basis index by stride[m] -
    stride[n], a pair creation on modes (p, q) by stride[p] + stride[q].
    Couplings past the cutoff drop.
    """
    if gen.mode_count != layout.mode_count:
        raise ValueError("generator and layout have different mode counts")
    cutoff = layout.cutoff
    occ = _occupations(layout)
    stride = (cutoff + 1) ** np.arange(layout.mode_count - 1, -1, -1)
    rows = [np.zeros(0, dtype=np.intp)]
    cols = [np.zeros(0, dtype=np.intp)]
    vals = [np.zeros(0, dtype=np.complex128)]
    for m, n in zip(*np.nonzero(gen.h)):
        if m == n:
            src = np.flatnonzero(occ[n])
            rows.append(src)
            amplitude = occ[n, src]
        else:
            src = np.flatnonzero((occ[n] > 0) & (occ[m] < cutoff))
            rows.append(src + stride[m] - stride[n])
            amplitude = np.sqrt(occ[n, src] * (occ[m, src] + 1.0))
        cols.append(src)
        vals.append(gen.h[m, n] * amplitude)
    # (1/2) sum_pq g_pq adag_p adag_q collapses to g_pq per unordered pair
    # (g symmetric) and g_pp / 2 on the diagonal; the Hermitian conjugate
    # entries are the pair-annihilation block.
    for p, q in zip(*np.nonzero(np.triu(gen.g))):
        if p == q:
            src = np.flatnonzero(occ[p] + 2 <= cutoff)
            amplitude = 0.5 * np.sqrt((occ[p, src] + 1.0) * (occ[p, src] + 2.0))
        else:
            src = np.flatnonzero((occ[p] < cutoff) & (occ[q] < cutoff))
            amplitude = np.sqrt((occ[p, src] + 1.0) * (occ[q, src] + 1.0))
        target = src + stride[p] + stride[q]
        value = gen.g[p, q] * amplitude
        rows += [target, src]
        cols += [src, target]
        vals += [value, value.conj()]
    dim = layout.basis_size
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()


def _occupations(layout: ModeLayout) -> np.ndarray:
    """Occupation of each mode (rows) in each basis state (columns)."""
    shape = (layout.cutoff + 1,) * layout.mode_count
    return np.array(np.unravel_index(np.arange(layout.basis_size), shape))


def _operator(gen: GeneratorSpec, layout: ModeLayout) -> tuple[scipy.sparse.csr_matrix, float]:
    """-iH on ``layout`` and its 1-norm, built once per generator and truncation."""
    key = (layout.mode_count, layout.cutoff)
    cached = gen._operators.get(key)
    if cached is None:
        A = -1j * hamiltonian(gen, layout)
        cached = gen._operators[key] = (A, float(abs(A).sum(axis=0).max()))
    return cached


@functools.cache
def _shell_mask(layout: ModeLayout) -> np.ndarray:
    """Basis states with some mode within two levels of the cutoff (read-only)."""
    mask = np.any(_occupations(layout) >= layout.cutoff - 1, axis=0)
    mask.flags.writeable = False
    return mask


def _check_step(name: str, step: float) -> None:
    """A finite-difference step of either sign whose estimates stay finite.

    The estimates divide by step^2 and (step / 2)^2, so both squares must
    be finite normal floats; otherwise they give NaN or Inf.
    """
    half = step / 2.0
    if not (math.isfinite(step * step) and half * half >= sys.float_info.min):
        raise ValueError(
            f"{name} must be finite with 3e-154 <= |{name}| <= 1e154, got {step!r}"
        )


def _check_shell_weight(vec: np.ndarray, shell: np.ndarray, budget: float) -> None:
    weight = float(np.sum(np.abs(vec[shell]) ** 2))
    # Written as "not <=" so that a NaN weight (a non-finite vector) fails.
    if not weight <= budget:
        raise BudgetError(
            f"boundary-shell weight {weight:.3e} exceeds the leakage "
            f"budget {budget:.1e}; raise the cutoff"
        )


def _propagation(gen: GeneratorSpec, state: StateVector, shell_budget: float):
    """The dense input and a sweep of exp(-i theta H)|state>.

    -iH and the shell mask come from their caches (the generator's
    operators, see ``GeneratorSpec``, and ``_shell_mask``), so this only
    densifies and checks the state.  ``sweep(start, stop, num)`` returns
    the evolved vectors at the ``num`` equally spaced thetas from
    ``start`` to ``stop`` (endpoint included) as the rows of one array,
    from one ``expm_multiply`` call: the interval algorithm of Al-Mohy &
    Higham (2011, section 5) costs about as much as a single evolution.
    A sweep whose |stop - start| * ||H||_1 passes ``SWEEP_NORM_BUDGET``
    is refused before it starts.  The input and every evolved vector are
    held to the boundary-shell leakage budget.
    """
    A, norm = _operator(gen, state.layout)
    shell = _shell_mask(state.layout)
    v0 = state.to_dense()
    _check_shell_weight(v0, shell, shell_budget)

    def sweep(start: float, stop: float, num: int) -> np.ndarray:
        # The interval algorithm assumes start <= stop; on a descending grid
        # scipy returns wrong vectors without an error, so run it ascending.
        lo, hi = min(start, stop), max(start, stop)
        # Written as "not <=" so that a NaN span (a non-finite theta) fails.
        if not (hi - lo) * norm <= SWEEP_NORM_BUDGET:
            raise BudgetError(
                f"sweep over [{lo:.3e}, {hi:.3e}] times the operator 1-norm "
                f"{norm:.3e} exceeds the budget {SWEEP_NORM_BUDGET:.0e}; "
                "use a smaller step"
            )
        out = expm_multiply(A, v0, start=lo, stop=hi, num=num, endpoint=True)
        for vec in out:
            _check_shell_weight(vec, shell, shell_budget)
        return out if start <= stop else out[::-1]

    return v0, sweep


def exact_unitary(gen: GeneratorSpec, theta: float, layout: ModeLayout) -> ExactUnitary:
    """Dense U(theta) = exp(-i theta H) with unitarity and leakage monitors."""
    if layout.basis_size > EXACT_UNITARY_DIM_BUDGET:
        raise BudgetError(
            f"dense unitary dimension {layout.basis_size} over budget "
            f"{EXACT_UNITARY_DIM_BUDGET}"
        )
    matrix = scipy.linalg.expm(theta * _operator(gen, layout)[0].toarray())
    col_norms = np.linalg.norm(matrix, axis=0)
    unitarity_residual = float(np.max(np.abs(col_norms - 1.0)))
    shell = _shell_mask(layout)
    if shell.any() and not shell.all():
        block = matrix[np.ix_(shell, ~shell)]
        shell_coupling = float(np.linalg.norm(block, ord=2))
    else:
        shell_coupling = 0.0
    return ExactUnitary(matrix, theta, layout, unitarity_residual, shell_coupling)


def evolve_state(
    gen: GeneratorSpec,
    state: StateVector,
    theta: float,
    shell_budget: float = SHELL_BUDGET,
) -> StateVector:
    """Apply the exact propagator to a sparse state, monitoring leakage."""
    _, sweep = _propagation(gen, state, shell_budget)
    return StateVector.from_dense(state.layout, sweep(0.0, theta, 2)[1])


@dataclass(frozen=True)
class FidelityEstimate:
    """Richardson-extrapolated QFI estimate with an error estimate."""

    value: float
    error: float


# Rows of a five-point sweep over [-h, h] other than theta = 0:
# -h, -h/2, h/2, h.
_OFF_CENTER = [0, 1, 3, 4]


def _richardson(coarse: float, fine: float, dtheta: float) -> FidelityEstimate:
    """Cancel the O(dtheta^2) error of an estimator that is even in dtheta.

    ``coarse`` and ``fine`` are its values at dtheta and dtheta / 2.
    """
    value = _extrapolate(coarse, fine, richardson=True)
    error = abs(fine - coarse) / 3.0 + 64.0 * np.finfo(float).eps / dtheta**2
    return FidelityEstimate(max(value, 0.0), error)


def qfi_fidelity_pure(
    gen: GeneratorSpec,
    state: StateVector,
    dtheta: float = DEFAULT_DTHETA_FIDELITY,
    shell_budget: float = SHELL_BUDGET,
) -> FidelityEstimate:
    """Fidelity-based QFI at theta = 0 for a pure state with all modes kept.

    Evaluates 8(1 - |<psi(0)|psi(dtheta)>|)/dtheta^2 at dtheta and
    dtheta/2, one sweep over [0, dtheta/2, dtheta], and
    Richardson-extrapolates the O(dtheta^2) error away.
    """
    _check_step("dtheta", dtheta)
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    v0, sweep = _propagation(gen, state, shell_budget)
    _, psi_fine, psi_coarse = sweep(0.0, dtheta, 3)

    def estimate(psi_h: np.ndarray, h: float) -> float:
        return 8.0 * (1.0 - abs(np.vdot(v0, psi_h))) / h**2

    return _richardson(
        estimate(psi_coarse, dtheta), estimate(psi_fine, dtheta / 2.0), dtheta
    )


def uhlmann_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2 via Hermitian square roots.

    Eigenvalues below 1e-12 of the largest, round-off from finite
    differencing, count as zero; genuinely negative operators are
    rejected.
    """
    sqrt_a = _psd_sqrt(rho_a)
    mid = sqrt_a @ rho_b @ sqrt_a
    eigs = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    return float(np.sum(np.sqrt(_psd_spectrum(eigs, "fidelity kernel"))) ** 2)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = np.sqrt(_psd_spectrum(eigs, "density operator"))
    return (vecs * root) @ vecs.conj().T


def _psd_spectrum(eigs: np.ndarray, what: str) -> np.ndarray:
    """Eigenvalues of a positive operator with round-off ones set to zero.

    A square root lifts a round-off eigenvalue of 1e-17 to 3e-9, which the
    fidelity QFI then divides by dtheta^2.
    """
    scale = max(float(np.max(np.abs(eigs))), 1e-300)
    if float(eigs.min()) < -1e-10 * scale and float(eigs.min()) < -1e-12:
        raise BudgetError(
            f"{what} is not positive within tolerance (min eigenvalue {eigs.min():.3e})"
        )
    return np.where(eigs > 1e-12 * scale, eigs, 0.0)


def _reduced_dense(
    vec: np.ndarray, layout: ModeLayout, keep: ModeSubset
) -> np.ndarray:
    dim = layout.cutoff + 1
    kept = list(keep.indices)
    comp = list(keep.complement(layout.mode_count))
    tensor = vec.reshape((dim,) * layout.mode_count)
    rearranged = np.transpose(tensor, axes=kept + comp)
    flat = rearranged.reshape(dim ** len(kept), dim ** len(comp))
    return flat @ flat.conj().T


def qfi_fidelity_mixed(
    gen: GeneratorSpec,
    state: StateVector,
    keep: ModeSubset,
    dtheta: float = DEFAULT_DTHETA_FIDELITY,
    shell_budget: float = SHELL_BUDGET,
) -> FidelityEstimate:
    """Fidelity-based QFI of the reduced state on ``keep`` at theta = 0.

    The reduced-state fidelity is not even in theta, so the estimates at
    +h and -h are averaged, which cancels its odd terms, before the
    Richardson step.  One sweep covers [-dtheta, dtheta] in five points.
    """
    _check_step("dtheta", dtheta)
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    keep.validate_for(state.layout)
    ModeLayout(len(keep.indices), state.layout.cutoff)  # dense budget check
    v0, sweep = _propagation(gen, state, shell_budget)
    rho0 = _reduced_dense(v0, state.layout, keep)
    minus_h, minus_half, plus_half, plus_h = sweep(-dtheta, dtheta, 5)[_OFF_CENTER]

    def one_sided(psi_h: np.ndarray, h: float) -> float:
        rho_h = _reduced_dense(psi_h, state.layout, keep)
        fidelity = uhlmann_fidelity(rho0, rho_h)
        return 8.0 * (1.0 - math.sqrt(min(fidelity, 1.0))) / h**2

    def estimate(plus: np.ndarray, minus: np.ndarray, h: float) -> float:
        return 0.5 * (one_sided(plus, h) + one_sided(minus, h))

    return _richardson(
        estimate(plus_h, minus_h, dtheta),
        estimate(plus_half, minus_half, dtheta / 2.0),
        dtheta,
    )


class DerivativeStates:
    """Finite-difference first-order state and reduced-state corrections.

    ``psi1`` is computed on construction.  The dense operators ``rho1``
    and ``rho2`` are built on first read and cached, so a caller that
    reads only ``psi1`` builds no reduced density matrix.
    """

    def __init__(
        self,
        psi1: StateVector,
        rho1: Callable[[], DensityOperator],
        rho2: Callable[[], DensityOperator],
    ) -> None:
        self.psi1 = psi1
        self._build_rho1 = rho1
        self._build_rho2 = rho2

    @functools.cached_property
    def rho1(self) -> DensityOperator:
        return self._build_rho1()

    @functools.cached_property
    def rho2(self) -> DensityOperator:
        return self._build_rho2()


def derivative_states(
    gen: GeneratorSpec,
    state: StateVector,
    dtheta: float = DEFAULT_DTHETA_FIRST,
    dtheta2: float = DEFAULT_DTHETA_SECOND,
    keep: ModeSubset | None = None,
    richardson: bool = True,
    shell_budget: float = SHELL_BUDGET,
) -> DerivativeStates:
    """Central-difference psi1 plus the reduced-state corrections rho1, rho2.

    rho1 and rho2 are the linear and quadratic coefficients of the
    reduced-state expansion in theta, taken on ``keep`` (all modes when
    omitted).  Richardson extrapolation removes the leading O(h^2)
    finite-difference error.  psi1 and rho1 share one five-point sweep
    over [-dtheta, dtheta]; rho2 makes its own over [-dtheta2, dtheta2]
    when it is first read.
    """
    _check_step("dtheta", dtheta)
    _check_step("dtheta2", dtheta2)
    layout = state.layout
    keep = keep if keep is not None else ModeSubset.of(range(layout.mode_count))
    keep.validate_for(layout)
    sub_layout = ModeLayout(len(keep.indices), layout.cutoff)
    v0, sweep = _propagation(gen, state, shell_budget)
    psi = sweep(-dtheta, dtheta, 5)[_OFF_CENTER]

    def reduced(vectors) -> list[np.ndarray]:
        return [_reduced_dense(vec, layout, keep) for vec in vectors]

    def rho1() -> DensityOperator:
        rho = _first_difference(reduced(psi), dtheta, richardson)
        return DensityOperator(sub_layout, _hermitize(rho))

    def rho2() -> DensityOperator:
        rho_h = reduced(sweep(-dtheta2, dtheta2, 5)[_OFF_CENTER])
        rho_0 = _reduced_dense(v0, layout, keep)
        rho = _second_difference(rho_h, rho_0, dtheta2, richardson)
        return DensityOperator(sub_layout, _hermitize(rho))

    psi1 = _first_difference(psi, dtheta, richardson)
    return DerivativeStates(StateVector.from_dense(layout, psi1), rho1, rho2)


def _first_difference(f, h: float, richardson: bool) -> np.ndarray:
    """f'(0) from f = (f(-h), f(-h/2), f(h/2), f(h))."""
    minus_h, minus_half, plus_half, plus_h = f
    coarse = (plus_h - minus_h) / (2.0 * h)
    fine = (plus_half - minus_half) / h
    return _extrapolate(coarse, fine, richardson)


def _second_difference(f, f0: np.ndarray, h: float, richardson: bool) -> np.ndarray:
    """f''(0) / 2 from f = (f(-h), f(-h/2), f(h/2), f(h)) and f0 = f(0)."""
    minus_h, minus_half, plus_half, plus_h = f
    half = h / 2.0
    coarse = (plus_h - 2.0 * f0 + minus_h) / (2.0 * h * h)
    fine = (plus_half - 2.0 * f0 + minus_half) / (2.0 * half * half)
    return _extrapolate(coarse, fine, richardson)


def _extrapolate(coarse: np.ndarray, fine: np.ndarray, richardson: bool) -> np.ndarray:
    """Richardson combination of estimates at steps h and h/2 (or ``coarse``)."""
    if not richardson:
        return coarse
    return (4.0 * fine - coarse) / 3.0


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def coherent_state(
    layout: ModeLayout,
    mode: int,
    alpha: complex,
    shell_budget: float = SHELL_BUDGET,
) -> StateVector:
    """Truncated coherent state exp(alpha a^dag - conj(alpha) a)|0> of one mode.

    The analytic amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) are
    renormalized on the truncated basis and held to the same
    boundary-shell leakage budget as the sparse ``expm_multiply``
    propagator.
    """
    if not 0 <= mode < layout.mode_count:
        raise ValueError(f"mode {mode} out of range")
    levels = np.arange(layout.cutoff + 1)
    amplitudes = (levels == 0).astype(np.complex128)
    if alpha != 0:
        # |alpha|^n / sqrt(n!) in log form; exp(-|alpha|^2/2) cancels on
        # renormalizing.
        log_factorial = np.array([math.lgamma(n + 1.0) for n in levels])
        log_size = levels * math.log(abs(alpha)) - 0.5 * log_factorial
        amplitudes = np.exp(log_size - log_size.max() + 1j * cmath.phase(alpha) * levels)
    vec = np.zeros(layout.basis_size, dtype=np.complex128)
    vec[levels * (layout.cutoff + 1) ** (layout.mode_count - 1 - mode)] = amplitudes
    vec /= np.linalg.norm(vec)
    _check_shell_weight(vec, _shell_mask(layout), shell_budget)
    return StateVector.from_dense(layout, vec)


def classical_transfer_matrix(gen: GeneratorSpec) -> np.ndarray:
    """2M x 2M coefficient matrix of the Heisenberg mode equations."""
    h, g = gen.h, gen.g
    return np.block([[-1j * h, -1j * g], [1j * g.conj(), 1j * h.conj()]])


def extract_bogoliubov(gen: GeneratorSpec, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact alpha(theta), beta(theta) from the classical exponential.

    Works at the mode-operator level, free of any Fock truncation.
    """
    E = scipy.linalg.expm(theta * classical_transfer_matrix(gen))
    M = gen.mode_count
    alpha = E[:M, :M].conj()
    beta = -E[:M, M:].conj()
    return alpha, beta


def extract_first_order(
    gen: GeneratorSpec, dtheta: float = 1e-5
) -> BogoliubovFirstOrder:
    """First-order coefficient model by central differencing at theta = 0."""
    alpha_p, beta_p = extract_bogoliubov(gen, dtheta)
    alpha_m, beta_m = extract_bogoliubov(gen, -dtheta)
    alpha1 = (alpha_p - alpha_m) / (2.0 * dtheta)
    beta1 = (beta_p - beta_m) / (2.0 * dtheta)
    return BogoliubovFirstOrder(np.ones(gen.mode_count), alpha1, beta1)
