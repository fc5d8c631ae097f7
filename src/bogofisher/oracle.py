"""Brute-force ground truth on the truncated Fock space.

The quadratic anti-Hermitian generator K of the first-order route
(``perturb.GeneratorK``, from ``perturb.build_generator``),

    K = sum_mn N_mn a_m^dag a_n
      + (1/2) sum_pq C_pq a_p^dag a_q^dag - (1/2) sum_pq conj(C_pq) a_p a_q,

is -iH for the quadratic Hermitian Hamiltonian H = iK, and generates the
exact propagator U(theta) = exp(theta K) = exp(-i theta H).  Each term
of K changes the total occupation by 0 or +-2, so each oracle call
propagates on its input state's own sector of the truncated basis
(``_sector_of``, ``_sector``): the states with every mode at most the
cutoff, a total occupation of at most N_max, the input's largest total
plus the cutoff's headroom over its largest occupation, and a total of
one of the parities of the input's totals (its parity classes).  The
boundary shell that guards the truncation holds the states within two
levels of the cutoff in some mode or of N_max in total.

The oracle gathers one sparse operator per generator and sector,
A - mu I with A = K on the sector and mu its mean diagonal entry (see
``_prepared``).  Its entries are held as row and column index arrays
sorted by row and column; the terms of each entry are summed by
``fock._sum_by`` in COO order, from +0 (only a diagonal entry has
several: one per number coefficient, in the order of its flat index).
The product with a vector is computed in numpy (``_product``): the
entries are rounded as ``complex * complex`` and each row's terms are
added one by one from +0, in column order.
``_taylor_stencil`` is the one evolution: it applies U(theta) to a
state vector at theta = h/2 and h, and for the symmetric finite
differences also at -h and -h/2, with the truncated-Taylor interval
algorithm of Al-Mohy & Higham ("Computing the action of the matrix
exponential", SIAM J. Sci. Comput. 2011, algorithm 5.2) for one vector.
It meets their backward-error bound at double precision, and for
t||A||_1 up to 63.4 it returns the vectors of
``scipy.sparse.linalg.expm_multiply`` over [0, h] on A and on -A bit for
bit; the package itself needs numpy only.  Where one Taylor step spans
[0, h] both sides share one set of Taylor terms at theta = 0.  Every
estimate reads the step's absolute value only, so a negative step gives
the bytes of its absolute value.  Everything downstream is obtained
nonperturbatively: fidelity-based QFI with Richardson extrapolation,
Uhlmann fidelity for reduced states, and finite-difference state and
density-operator derivatives.

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
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError
from .fock import (
    DENSE_DIM_BUDGET,
    DensityOperator,
    ModeLayout,
    ModeSubset,
    StateVector,
    _check_mode,
    _cmul,
    _place_values,
    _reduced_dense,
    _sum_by,
    _unique_slots,
)
from .perturb import GeneratorK, build_generator

DEFAULT_DTHETA_FIRST = 1e-4
DEFAULT_DTHETA_SECOND = 1e-3
DEFAULT_DTHETA_FIDELITY = 1e-3
SHELL_BUDGET = 1e-10
# Largest span times ||K||_1 of one stencil: h for the + side alone, 2h
# for both sides.  The cost of a Taylor step grows linearly in it; the
# oracle's finite-difference steps need about 1.
SWEEP_NORM_BUDGET = 1e3

# The oracle propagates the first-order route's K of a validated model:
# exp(theta K), whose free evolution U0 = prod_n G_n^(n_n) is left out, as
# it changes neither the pure nor any reduced QFI.
generator_from_model = build_generator


def _sector_of(state: StateVector) -> tuple[int, tuple[int, ...]]:
    """(N_max, parity classes) of the sector that ``state`` propagates on.

    N_max is the largest total occupation of the state's terms plus the
    headroom, the cutoff minus its largest single-mode occupation, capped
    at mode_count * cutoff; the parity classes are the parities of the
    terms' totals.  N_max is lowered by one where no class has its
    parity, which drops no state, so equal sectors get equal keys.
    """
    layout = state.layout
    occ = state.occupations()
    totals = occ.sum(axis=1)
    parity = tuple(sorted(set((totals % 2).tolist()))) or (0,)
    headroom = layout.cutoff - int(occ.max(initial=0))
    n_max = min(int(totals.max(initial=0)) + headroom, layout.mode_count * layout.cutoff)
    if n_max % 2 not in parity:
        n_max -= 1
    return n_max, parity


@functools.cache
def _sector(layout: ModeLayout, n_max: int, parity: tuple[int, ...]) -> np.ndarray:
    """Sorted int64 ranks of the states with total <= ``n_max`` of a parity in ``parity``.

    A quadratic K changes the total occupation by 0 or +-2, so these
    states are closed under it up to the pair creations past ``n_max``.
    Built mode by mode from the prefixes of the first modes, the last
    mode taking only the allowed parities; ``n_max`` has one of them
    (``_sector_of``), so every prefix has a completion and no stage is
    larger than the sector.  Each stage is counted before it is
    allocated and refused past ``DENSE_DIM_BUDGET``.  Read-only.
    """
    cutoff, modes = layout.cutoff, layout.mode_count
    places = _place_values(cutoff, modes)
    ranks = np.zeros(1, dtype=np.int64)
    totals = np.zeros(1, dtype=np.int64)
    for mode in range(modes):
        # Each prefix takes the levels lowest, lowest + step, ... up to the
        # cutoff or to n_max; on the last mode only the allowed parities.
        step = 2 if mode == modes - 1 and len(parity) == 1 else 1
        lowest = (parity[0] - totals) % 2 if step == 2 else np.zeros_like(totals)
        counts = (np.minimum(cutoff, n_max - totals) - lowest) // step + 1
        # The max first: the sum of counts past the budget could overflow.
        if counts.max() > DENSE_DIM_BUDGET or counts.sum() > DENSE_DIM_BUDGET:
            raise BudgetError(
                f"sector of the basis states with total occupation <= {n_max} exceeds "
                f"the dense-dimension budget {DENSE_DIM_BUDGET}"
            )
        prefix = np.repeat(np.arange(ranks.size), counts)
        offset = np.arange(prefix.size) - (np.cumsum(counts) - counts)[prefix]
        level = lowest[prefix] + step * offset
        ranks = ranks[prefix] + level * places[mode]
        totals = totals[prefix] + level
    ranks.flags.writeable = False
    return ranks


@dataclass(frozen=True, eq=False)
class _Template:
    """Where each term of K - mu I lands in one sector, for one nonzero pattern.

    The coefficients are the entries of K.number at the flat indices
    ``number_entries`` and of triu(K.pair_create) at ``pair_entries``.
    Coefficient k multiplies the next ``block_sizes[k]`` ladder
    ``amplitude`` values: these products are the number and
    pair-creation terms of K, followed by minus the conjugates of the
    pair-creation products (from ``pair_start`` on), which are the
    pair-annihilation terms.

    ``rows`` and ``cols`` are the pattern of A - mu I in sector indices,
    sorted by row and then by column: the entries of K and one diagonal
    entry per row, at ``diagonal``.  Term k is summed into the entry
    ``slots[k]``; ``fock._sum_by`` adds each entry's terms in COO order
    from +0.  Only diagonal entries have more than one term: one per
    number coefficient, in the order of ``number_entries``.  Every array
    is read-only.
    """

    number_entries: np.ndarray
    pair_entries: np.ndarray
    block_sizes: np.ndarray
    amplitude: np.ndarray
    pair_start: int
    slots: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    diagonal: np.ndarray


def _pattern(gen: GeneratorK) -> tuple[tuple, tuple]:
    """The ``_Template`` key: the flat nonzeros of K.number and of triu(K.pair_create)."""
    number = np.flatnonzero(gen.number).tolist()
    pair = np.flatnonzero(np.triu(gen.pair_create)).tolist()
    return tuple(number), tuple(pair)


@functools.cache
def _template(layout: ModeLayout, n_max: int, parity: tuple[int, ...], pattern: tuple):
    """The ``_Template`` of one sector for the coefficients at ``pattern`` (``_pattern``).

    Built at the first operator of each sector and pattern and kept for
    the life of the process: one per sector and pattern a process meets,
    each about 40 bytes per nonzero of K.
    """
    dim = _sector(layout, n_max, parity).size
    amplitude, sizes, rows, cols = _coo_terms(layout, n_max, parity, pattern)
    # A - mu I has a diagonal entry in every row, where K may have none:
    # one zero term per row after K's terms.  ``_sum_by`` starts every sum
    # from +0, so these terms keep only their slots, as ``diagonal``.
    rows = np.concatenate((rows, np.arange(dim)))
    cols = np.concatenate((cols, np.arange(dim)))
    keys, slots = _unique_slots(rows * dim + cols)
    n_terms = rows.size - dim
    template = _Template(
        number_entries=np.array(pattern[0], dtype=np.intp),
        pair_entries=np.array(pattern[1], dtype=np.intp),
        block_sizes=np.array(sizes, dtype=np.intp),
        amplitude=amplitude,
        pair_start=sum(sizes[: len(pattern[0])]),
        slots=slots[:n_terms],
        rows=keys // dim,
        cols=keys % dim,
        diagonal=slots[n_terms:],
    )
    for value in vars(template).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return template


def _coo_terms(layout: ModeLayout, n_max: int, parity: tuple[int, ...], pattern: tuple):
    """Amplitudes, block sizes and the row and column of each term of K on a sector.

    Rows and columns are sector indices.  The terms are in COO order, the
    order in which ``fock._sum_by`` adds them: one block per number
    coefficient, one pair-creation block per pair coefficient, then the
    transposes of the pair-creation blocks, the pair-annihilation terms.
    """
    modes, cutoff = layout.mode_count, layout.cutoff
    sector = _sector(layout, n_max, parity)
    occ = np.ascontiguousarray(layout.occupations_of(sector).T)
    # A pair creation stays in the sector only up to total n_max.
    pair_room = occ.sum(axis=0) + 2 <= n_max
    stride = _place_values(cutoff, modes)
    number_entries, pair_entries = pattern

    def targets(src: np.ndarray, shift: int) -> np.ndarray:
        return np.searchsorted(sector, sector[src] + shift)

    # One (target rows, source columns, amplitudes) block per coefficient.
    blocks = []
    for flat in number_entries:
        m, n = divmod(flat, modes)
        if m == n:
            src = np.flatnonzero(occ[n])
            blocks.append((src, src, occ[n, src].astype(np.float64)))
        else:
            src = np.flatnonzero((occ[n] > 0) & (occ[m] < cutoff))
            amplitude = np.sqrt(occ[n, src] * (occ[m, src] + 1.0))
            blocks.append((targets(src, int(stride[m] - stride[n])), src, amplitude))
    # (1/2) sum_pq C_pq adag_p adag_q collapses to C_pq per unordered pair
    # (C symmetric) and C_pp / 2 on the diagonal; the pair-annihilation
    # block, -(1/2) sum_pq conj(C_pq) a_p a_q, sits at the transposed entries.
    for flat in pair_entries:
        p, q = divmod(flat, modes)
        if p == q:
            src = np.flatnonzero((occ[p] + 2 <= cutoff) & pair_room)
            amplitude = 0.5 * np.sqrt((occ[p, src] + 1.0) * (occ[p, src] + 2.0))
        else:
            src = np.flatnonzero((occ[p] < cutoff) & (occ[q] < cutoff) & pair_room)
            amplitude = np.sqrt((occ[p, src] + 1.0) * (occ[q, src] + 1.0))
        blocks.append((targets(src, int(stride[p] + stride[q])), src, amplitude))
    amplitude = np.concatenate([np.zeros(0), *(block[2] for block in blocks)])
    pairs = blocks[len(number_entries) :]
    rows = np.concatenate([np.zeros(0, np.intp), *(b[0] for b in blocks), *(b[1] for b in pairs)])
    cols = np.concatenate([np.zeros(0, np.intp), *(b[1] for b in blocks), *(b[0] for b in pairs)])
    return amplitude, [block[1].size for block in blocks], rows, cols


@dataclass(frozen=True, eq=False)
class _Operator:
    """A = K on one sector, prepared once for every stencil on it.

    ``shifted`` holds the entries of A - mu I at (``rows``, ``cols``), the
    template's pattern with its zeros, where mu = tr(A) / n is the shift
    that Al-Mohy & Higham apply before their Taylor sums.  ``norm`` and
    ``shifted_norm`` are the exact 1-norms of A and of A - mu I.
    """

    norm: float
    mu: complex
    shifted: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    shifted_norm: float


# Held while an operator is built, so that scan threads meeting the same
# sector build it (and its template) once.
_BUILD_LOCK = threading.Lock()


def _prepared(
    gen: GeneratorK, layout: ModeLayout, n_max: int, parity: tuple[int, ...]
) -> _Operator:
    """A - mu I on one sector, A = K, gathered once per generator and sector.

    The operator is kept on ``gen``, keyed by (mode_count, cutoff, N_max,
    parity classes), as ``build_generator`` keeps K on its model: every
    oracle call of one command on one sector shares one build, and K's
    arrays are read-only, so a kept operator cannot go stale.

    The entries of the truncated P K P come from occupation arithmetic on
    the lexicographic ranks (``ModeLayout.ranks_of``): a hop from mode n
    to mode m moves the rank by stride[m] - stride[n], a pair creation on
    modes (p, q) by stride[p] + stride[q], and a ``searchsorted`` finds
    the target in the sector.  Couplings past the cutoff or past N_max
    drop.  That arithmetic depends only on the sector and on which
    coefficients are nonzero, so it is done once per sector and nonzero
    pattern (``_template``).  Each generator then costs one multiply of
    its coefficients by the ladder amplitudes and one ``fock._sum_by`` of
    each entry's terms in COO order.  mu is the mean of the diagonal,
    summed as numpy sums it; each 1-norm is the largest column sum of
    absolute values, added in row order.  These are the bits of a COO
    build of H = iK whose duplicates are summed in COO order, converted by
    scipy, multiplied by -1j and shifted as ``expm_multiply`` shifts it,
    except for the exact zeros that scipy's subtraction drops and the
    signs of zeros (each sum starts from +0): the product adds each row's
    terms to +0, so a +-0 term changes no bit.
    """
    key = (layout.mode_count, layout.cutoff, n_max, parity)
    cached = vars(gen).get("_operators", {}).get(key)
    if cached is None:
        with _BUILD_LOCK:
            operators = vars(gen).setdefault("_operators", {})
            cached = operators.get(key)
            if cached is None:
                cached = operators[key] = _build(gen, layout, n_max, parity)
    return cached


def _build(gen: GeneratorK, layout: ModeLayout, n_max: int, parity: tuple[int, ...]):
    """The ``_Operator`` of ``_prepared``."""
    if gen.mode_count != layout.mode_count:
        raise ValueError("generator and layout have different mode counts")
    t = _template(layout, n_max, parity, _pattern(gen))
    coefficients = np.concatenate(
        (gen.number.take(t.number_entries), gen.pair_create.take(t.pair_entries))
    )
    products = np.repeat(coefficients, t.block_sizes) * t.amplitude
    terms = np.concatenate((products, -np.conjugate(products[t.pair_start :])))
    # The added diagonal zeros are +0j and add nothing to the column sums.
    union = _sum_by(t.slots, terms, t.rows.size)
    n = t.diagonal.size
    norm = float(np.bincount(t.cols, weights=np.abs(union), minlength=n).max())
    trace = np.zeros(n, dtype=np.complex128)
    trace += union[t.diagonal]
    mu = trace.sum() / float(n)
    # mu I holds 1 * mu, whose zeros may carry other signs than mu's.
    union[t.diagonal] -= np.ones(1, dtype=np.complex128) * mu
    shifted_norm = float(np.bincount(t.cols, weights=np.abs(union), minlength=n).max())
    return _Operator(norm, mu, union, t.rows, t.cols, shifted_norm)


def _product(op: _Operator, b: np.ndarray) -> np.ndarray:
    """(A - mu I) b, each row's terms added in column order to +0.

    The terms are rounded as ``complex * complex`` (``_cmul``) and
    ``np.add.at`` adds them one by one: the bits of scipy's CSR product.
    """
    out = np.zeros(b.size, dtype=np.complex128)
    np.add.at(out, op.rows, _cmul(op.shifted, b.take(op.cols)))
    return out


@functools.cache
def _shell_mask(layout: ModeLayout, n_max: int, parity: tuple[int, ...]) -> np.ndarray:
    """Sector states within two levels of the cutoff in some mode, or of N_max in total.

    Read-only.
    """
    occ = layout.occupations_of(_sector(layout, n_max, parity))
    mask = np.any(occ >= layout.cutoff - 1, axis=1) | (occ.sum(axis=1) >= n_max - 1)
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


def _check_shell_weight(vec: np.ndarray, shell: np.ndarray) -> None:
    """The oracle's one truncation guard: weight on ``shell`` within ``SHELL_BUDGET``."""
    weight = float(np.sum(np.abs(vec[shell]) ** 2))
    # Written as "not <=" so that a NaN weight (a non-finite vector) fails.
    if not weight <= SHELL_BUDGET:
        raise BudgetError(
            f"boundary-shell weight {weight:.3e} exceeds the leakage "
            f"budget {SHELL_BUDGET:.1e}; raise the cutoff"
        )


# theta_m: the largest t||A||_1 for which a degree-m Taylor step meets the
# double-precision backward-error bound.  m = 1..30 from table A.3 of
# Higham & Al-Mohy, "Computing matrix functions" (Acta Numerica 2010);
# m = 35..55 from table 3.1 of Al-Mohy & Higham (2011).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0**-53


def _taylor_degree(norm: float) -> tuple[int, int]:
    """Taylor degree m* and step count s for a span with t||A||_1 = ``norm``.

    Minimises m * ceil(norm / theta_m), the number of sparse products, over
    the table: the 1-norm rule of Al-Mohy & Higham's code fragment (3.1).
    Under their condition (3.13), norm <= 63.36 at m_max = 55, this is the
    choice of ``expm_multiply``; above it ``expm_multiply`` estimates the
    norms of the powers of A instead, which ``norm`` bounds, so this step
    takes more products and is no less accurate.
    """
    if norm == 0:
        return 0, 1
    steps = {m: math.ceil(norm / theta) for m, theta in _THETA.items()}
    m = min(steps, key=lambda m: m * steps[m])  # the lowest degree on ties
    return m, steps[m]


def _taylor_step(op: _Operator, b: np.ndarray, t: float, m_star: int, s: int) -> np.ndarray:
    """exp(t A) b by ``s`` truncated Taylor series of degree <= ``m_star``.

    Algorithm 3.2 of Al-Mohy & Higham (2011) on the shifted operator
    A - mu I; each series stops early once two successive terms are
    negligible.
    """
    f = b
    eta = np.exp(t * op.mu / float(s))
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(m_star):
            coeff = t / float(s * (j + 1))
            b = coeff * _product(op, b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
        b = f
    return f


def _terms(op: _Operator, b: np.ndarray, h: float):
    """The Taylor terms K_p = (h (A - mu I))^p b / p! of one block, each made on first use.

    Returns ``term``, with term(p) = K_p computed from K_(p-1) when first
    asked for, and the list of the max-norms of the terms made so far.
    """
    terms, norms = [b], [np.abs(b).max()]

    def term(p: int) -> np.ndarray:
        if p == len(terms):
            terms.append(h * _product(op, terms[p - 1]) / float(p))
            norms.append(np.abs(terms[p]).max())
        return terms[p]

    return term, norms


def _block_point(term, norms: list, k: int, h: float, mu: complex, m_star: int) -> np.ndarray:
    """exp(k h A) b = e^(k h mu) sum_p k^p K_p from the terms ``term(p)`` of a block.

    The series stops early once two successive terms are negligible.
    """
    f = term(0)
    c1 = norms[0]
    for p in range(1, m_star + 1):
        coeff = float(k**p)
        f = f + coeff * term(p)
        c2 = coeff * norms[p]
        if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
            break
        c1 = c2
    return np.exp(k * h * mu) * f


def _negated(op: _Operator) -> _Operator:
    """-A: the same pattern with -mu and the entries of -(A - mu I)."""
    return _Operator(op.norm, -op.mu, -op.shifted, op.rows, op.cols, op.shifted_norm)


def _taylor_stencil(op: _Operator, v: np.ndarray, h: float, two_sided: bool) -> np.ndarray:
    """exp(theta A) v at theta = h/2, h (h > 0), after -h, -h/2 if ``two_sided``, as the rows.

    The rows at h/2 and h are those of ``expm_multiply`` over [0, h] at 3
    points on A - mu I (``_product``), the rows at -h/2 and -h those on
    -A (``_negated``): algorithm 5.2 of Al-Mohy & Higham (2011) for one
    vector, bit for bit while t||A||_1 <= 63.4.  (Where A - mu I is zero
    no term is added, so a -0 of v stays -0; ``expm_multiply`` adds
    0 * A v first and makes it +0.)  Where one Taylor step
    spans [0, h] (s = 1) each side sums one set of terms K_p of A at
    theta = 0 (``_terms``, ``_block_point``), shared by both sides:
    rounding is symmetric, so the term of -A is (-1)^p K_p exactly.  An
    odd one is written 0 - K_p: every zero entry of K_p is +0 (each row
    of a product is summed from +0), and so is the entry of the term of
    -A, where -K_p would hold -0.  Otherwise (s >= 2) each side takes two
    Taylor steps of h/2 (``_taylor_step``).
    """
    span_norm = h * op.shifted_norm
    m_star, s = _taylor_degree(span_norm)
    half = h / 2.0
    if s > 1:
        m_star, s = _taylor_degree(0.5 * span_norm)

        def side(negative: bool) -> list:
            a = _negated(op) if negative else op
            first = _taylor_step(a, v, half, m_star, s)
            return [first, _taylor_step(a, first, half, m_star, s)]

    else:
        term, norms = _terms(op, v, half)

        def mirrored(p: int) -> np.ndarray:
            return term(p) if p % 2 == 0 else 0.0 - term(p)

        def side(negative: bool) -> list:
            series, mu = (mirrored, -op.mu) if negative else (term, op.mu)
            return [_block_point(series, norms, k, half, mu, m_star) for k in (1, 2)]

    minus = side(True)[::-1] if two_sided else []
    return np.stack(minus + side(False))


def _placed(gen: GeneratorK, state: StateVector):
    """K on the state's sector, the sector, its shell mask and the state's vector there.

    The sector (``_sector_of``), K on it and its shell mask come from
    their caches (the generator's operators, see ``_prepared``,
    ``_sector`` and ``_shell_mask``), so this only places the state's
    amplitudes at their sector indices and holds them to the
    boundary-shell budget ``SHELL_BUDGET``.
    """
    key = _sector_of(state)
    op = _prepared(gen, state.layout, *key)
    sector = _sector(state.layout, *key)
    shell = _shell_mask(state.layout, *key)
    v0 = np.zeros(sector.size, dtype=np.complex128)
    v0[np.searchsorted(sector, state.ranks)] = state.amplitudes
    _check_shell_weight(v0, shell)
    return op, sector, shell, v0


def _stencil(op: _Operator, v0: np.ndarray, shell: np.ndarray, step: float, two_sided: bool):
    """The rows of ``_taylor_stencil`` at h = |step|, evolved on first call and kept.

    Returns a function whose first call runs one ``_taylor_stencil`` and
    holds its rows to the boundary-shell budget ``SHELL_BUDGET``; later
    calls return the same array.  The span evaluated, 2h * ||K||_1 if
    ``two_sided`` and h * ||K||_1 if not, is checked against
    ``SWEEP_NORM_BUDGET`` here, before any call.
    """
    h = abs(step)
    _check_sweep_norm(op, -h if two_sided else 0.0, h)

    @functools.cache
    def rows() -> np.ndarray:
        out = _taylor_stencil(op, v0, h, two_sided)
        for vec in out:
            _check_shell_weight(vec, shell)
        return out

    return rows


def _boxed(vec: np.ndarray, layout: ModeLayout, sector: np.ndarray) -> np.ndarray:
    """A sector vector scattered into the dense (cutoff + 1)^M box of ``layout``."""
    box = np.zeros(layout.basis_size, dtype=np.complex128)
    box[sector] = vec
    return box


def _check_sweep_norm(op: _Operator, lo: float, hi: float) -> None:
    """A stencil over [lo, hi] whose span times ||A||_1 is within ``SWEEP_NORM_BUDGET``."""
    # Written as "not <=" so that a NaN span (a non-finite theta) fails.
    if not (hi - lo) * op.norm <= SWEEP_NORM_BUDGET:
        raise BudgetError(
            f"sweep over [{lo:.3e}, {hi:.3e}] times the operator 1-norm "
            f"{op.norm:.3e} exceeds the budget {SWEEP_NORM_BUDGET:.0e}; "
            "use a smaller step"
        )


@dataclass(frozen=True)
class FidelityEstimate:
    """Richardson-extrapolated QFI estimate with an error estimate."""

    value: float
    error: float


def _richardson(coarse: float, fine: float, dtheta: float) -> FidelityEstimate:
    """Cancel the O(dtheta^2) error of an estimator that is even in dtheta.

    ``coarse`` and ``fine`` are its values at dtheta and dtheta / 2.
    """
    value = _extrapolate(coarse, fine)
    error = abs(fine - coarse) / 3.0 + 64.0 * np.finfo(float).eps / dtheta**2
    return FidelityEstimate(max(value, 0.0), error)


def qfi_fidelity_pure(
    gen: GeneratorK,
    state: StateVector,
    dtheta: float = DEFAULT_DTHETA_FIDELITY,
) -> FidelityEstimate:
    """Fidelity-based QFI at theta = 0 for a pure state with all modes kept.

    Evaluates 8(1 - |<psi(0)|psi(h)>|)/h^2 at h = |dtheta| and h/2, the
    + side of one stencil (``_stencil``), and Richardson-extrapolates the
    O(h^2) error away.  Only |dtheta| enters, so a negative step gives
    the same bytes as its absolute value.
    """
    _check_step("dtheta", dtheta)
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    op, _, shell, v0 = _placed(gen, state)
    h = abs(dtheta)
    psi_fine, psi_coarse = _stencil(op, v0, shell, h, two_sided=False)()

    def estimate(psi_h: np.ndarray, step: float) -> float:
        return 8.0 * (1.0 - abs(np.vdot(v0, psi_h))) / step**2

    return _richardson(estimate(psi_coarse, h), estimate(psi_fine, h / 2.0), h)


def uhlmann_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2 via Hermitian square roots.

    Eigenvalues below 1e-12 of the largest, round-off from finite
    differencing, count as zero; genuinely negative operators are
    rejected.
    """
    return _fidelity_from_root(_psd_sqrt(rho_a), rho_b)


def _fidelity_from_root(sqrt_a: np.ndarray, rho_b: np.ndarray) -> float:
    """``uhlmann_fidelity`` of rho_a and rho_b, given sqrt(rho_a)."""
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


def qfi_fidelity_mixed(
    gen: GeneratorK,
    state: StateVector,
    keep: ModeSubset,
    dtheta: float = DEFAULT_DTHETA_FIDELITY,
) -> FidelityEstimate:
    """Fidelity-based QFI of the reduced state on ``keep`` at theta = 0.

    The reduced-state fidelity is not even in theta, so the estimates at
    +h and -h are averaged, which cancels its odd terms, before the
    Richardson step.  One stencil (``_stencil``) gives the states at
    -h, -h/2, h/2 and h, h = |dtheta|.  The reduced states are taken in
    the dense box of the layout, within ``DENSE_DIM_BUDGET``.
    """
    _check_step("dtheta", dtheta)
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    keep.validate_for(state.layout)
    op, sector, shell, v0 = _placed(gen, state)

    def reduced(vec: np.ndarray) -> np.ndarray:
        return _reduced_dense(_boxed(vec, state.layout, sector), state.layout, keep)

    sqrt_rho0 = _psd_sqrt(reduced(v0))
    minus_h, minus_half, plus_half, plus_h = _stencil(op, v0, shell, dtheta, two_sided=True)()

    def one_sided(psi_h: np.ndarray, h: float) -> float:
        rho_h = reduced(psi_h)
        fidelity = _fidelity_from_root(sqrt_rho0, rho_h)
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

    ``psi1`` and the dense operators ``rho1`` and ``rho2`` are each built
    on first read and cached.  ``psi1`` and ``rho1`` share one stencil,
    made at the first read of either; ``rho2`` makes its own.  So a
    caller that reads only ``psi1`` builds no reduced density matrix, and
    one that reads only ``rho2`` evolves the state once.
    """

    def __init__(
        self,
        psi1: Callable[[], StateVector],
        rho1: Callable[[], DensityOperator],
        rho2: Callable[[], DensityOperator],
    ) -> None:
        self._build_psi1 = psi1
        self._build_rho1 = rho1
        self._build_rho2 = rho2

    @functools.cached_property
    def psi1(self) -> StateVector:
        return self._build_psi1()

    @functools.cached_property
    def rho1(self) -> DensityOperator:
        return self._build_rho1()

    @functools.cached_property
    def rho2(self) -> DensityOperator:
        return self._build_rho2()


def derivative_states(
    gen: GeneratorK,
    state: StateVector,
    dtheta: float = DEFAULT_DTHETA_FIRST,
    dtheta2: float = DEFAULT_DTHETA_SECOND,
    keep: ModeSubset | None = None,
) -> DerivativeStates:
    """Central-difference psi1 plus the reduced-state corrections rho1, rho2.

    rho1 and rho2 are the linear and quadratic coefficients of the
    reduced-state expansion in theta, taken on ``keep`` (all modes when
    omitted).  Richardson extrapolation removes the leading O(h^2)
    finite-difference error.  Each is built on first read
    (``DerivativeStates``): psi1 and rho1 from one stencil at +-|dtheta|
    and +-|dtheta| / 2, rho2 from its own at +-|dtheta2| and
    +-|dtheta2| / 2.  Only the sign-free |dtheta| enters, so a negative
    step gives the same bytes as its absolute value.  The psi1 stencil's
    span is checked against ``SWEEP_NORM_BUDGET`` here, the rho2
    stencil's when rho2 is read.  psi1 is read off the state's sector;
    rho1 and rho2 are taken in the dense box of the layout, within
    ``DENSE_DIM_BUDGET``.
    """
    _check_step("dtheta", dtheta)
    _check_step("dtheta2", dtheta2)
    layout = state.layout
    keep = keep if keep is not None else ModeSubset.of(range(layout.mode_count))
    keep.validate_for(layout)
    sub_layout = ModeLayout(len(keep.indices), layout.cutoff)
    op, sector, shell, v0 = _placed(gen, state)
    h, h2 = abs(dtheta), abs(dtheta2)
    psi = _stencil(op, v0, shell, h, two_sided=True)

    def reduced(vectors) -> list[np.ndarray]:
        return [_reduced_dense(_boxed(vec, layout, sector), layout, keep) for vec in vectors]

    def psi1() -> StateVector:
        return StateVector._from_ranks(layout, sector, _first_difference(psi(), h))

    def rho1() -> DensityOperator:
        rho = _first_difference(reduced(psi()), h)
        return DensityOperator(sub_layout, _hermitize(rho))

    def rho2() -> DensityOperator:
        rho_h = reduced(_stencil(op, v0, shell, h2, two_sided=True)())
        rho_0 = reduced([v0])[0]
        rho = _second_difference(rho_h, rho_0, h2)
        return DensityOperator(sub_layout, _hermitize(rho))

    return DerivativeStates(psi1, rho1, rho2)


def _first_difference(f, h: float) -> np.ndarray:
    """f'(0) from f = (f(-h), f(-h/2), f(h/2), f(h))."""
    minus_h, minus_half, plus_half, plus_h = f
    coarse = (plus_h - minus_h) / (2.0 * h)
    fine = (plus_half - minus_half) / h
    return _extrapolate(coarse, fine)


def _second_difference(f, f0: np.ndarray, h: float) -> np.ndarray:
    """f''(0) / 2 from f = (f(-h), f(-h/2), f(h/2), f(h)) and f0 = f(0)."""
    minus_h, minus_half, plus_half, plus_h = f
    half = h / 2.0
    coarse = (plus_h - 2.0 * f0 + minus_h) / (2.0 * h * h)
    fine = (plus_half - 2.0 * f0 + minus_half) / (2.0 * half * half)
    return _extrapolate(coarse, fine)


def _extrapolate(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Richardson combination of estimates at steps h and h/2."""
    return (4.0 * fine - coarse) / 3.0


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def coherent_state(layout: ModeLayout, mode: int, alpha: complex) -> StateVector:
    """Truncated coherent state exp(alpha a^dag - conj(alpha) a)|0> of one mode.

    The analytic amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) are
    renormalized on the truncated basis and held to the same
    boundary-shell budget as the propagator's Taylor stencil.
    """
    _check_mode(layout.mode_count, mode)
    dim = layout.basis_size
    levels = np.arange(layout.cutoff + 1)
    amplitudes = (levels == 0).astype(np.complex128)
    if alpha != 0:
        # |alpha|^n / sqrt(n!) in log form; exp(-|alpha|^2/2) cancels on
        # renormalizing.
        log_factorial = np.array([math.lgamma(n + 1.0) for n in levels])
        log_size = levels * math.log(abs(alpha)) - 0.5 * log_factorial
        amplitudes = np.exp(log_size - log_size.max() + 1j * cmath.phase(alpha) * levels)
    vec = np.zeros(dim, dtype=np.complex128)
    index = levels * _place_values(layout.cutoff, layout.mode_count)[mode]
    vec[index] = amplitudes
    vec /= np.linalg.norm(vec)
    _check_shell_weight(vec[index], levels >= layout.cutoff - 1)
    return StateVector.from_dense(layout, vec)

