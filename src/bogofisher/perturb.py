"""First-order transformed states under a Bogoliubov model.

The transformation is realized as U(theta) = U0 (1 + theta K) + O(theta^2),
where U0 multiplies each basis state by prod_n G_n^occupation and K is
the quadratic anti-Hermitian generator determined by the first-order
coefficients:

    K = sum_mn G_n conj(alpha1_mn) a_m^dag a_n
      + (1/2) sum_pq C_pq a_p^dag a_q^dag
      - (1/2) sum_pq conj(C_pq) a_p a_q,       C_pq = -conj(G_q) conj(beta1_pq).

Sign convention: the coefficient blocks are pinned so that K equals the
theta-derivative of the exact propagator exp(-i theta H) of the matching
quadratic Hamiltonian (see the oracle module).  With beta1_kk = 1 and
trivial phases this gives K|0> = -(1/sqrt 2)|2>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovFirstOrder, ensure_validated
from .errors import BudgetError, UnitarityError
from .fock import (
    ModeLayout,
    StateVector,
    _abs2,
    _cmul,
    _sum_by,
    _unique_slots,
    inner_product,
)

VALIDITY_THRESHOLD = 0.01
CUTOFF_HEADROOM = 2

_ANTIHERM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GeneratorK:
    """Quadratic anti-Hermitian first-order generator.

    ``number[m, n]`` multiplies a_m^dag a_n, ``pair_create[p, q]`` is the
    symmetric coefficient C of (1/2) sum C_pq a_p^dag a_q^dag; the pair
    annihilation block is fixed to -conj(C) by anti-Hermiticity.
    """

    number: np.ndarray
    pair_create: np.ndarray

    def __post_init__(self) -> None:
        number = np.array(self.number, dtype=np.complex128)
        pair = np.array(self.pair_create, dtype=np.complex128)
        for arr in (number, pair):
            arr.flags.writeable = False
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "pair_create", pair)

    @property
    def mode_count(self) -> int:
        return int(self.number.shape[0])

    def antihermiticity_residual(self) -> float:
        """Coefficient-level residual of K^dag = -K (pair blocks exact by form)."""
        num = float(np.max(np.abs(self.number + self.number.conj().T)))
        sym = float(np.max(np.abs(self.pair_create - self.pair_create.T)))
        return max(num, sym)


@dataclass(frozen=True, eq=False)
class FirstOrderPair:
    """Zeroth- and first-order transformed states.

    psi0 is normalized; psi1 generally is not.  <psi0|psi1> is purely
    imaginary because K is anti-Hermitian.
    """

    psi0: StateVector
    psi1: StateVector

    def overlap(self) -> complex:
        return inner_product(self.psi0, self.psi1)


def build_generator(model: BogoliubovFirstOrder) -> GeneratorK:
    """Construct K from a validated model; asserts anti-Hermiticity.

    K is kept on the model instance, so a model is validated and K built
    once however many transforms use it.  The model's arrays are
    read-only copies made at construction, so the kept K cannot go
    stale.  A model that fails is not kept and fails again on every call.
    """
    gen = vars(model).get("_generator")
    if gen is not None:
        return gen
    ensure_validated(model)
    G = model.G
    number = G[None, :] * model.alpha1.conj()
    raw = -(G.conj()[None, :] * model.beta1.conj())
    pair_create = 0.5 * (raw + raw.T)
    gen = GeneratorK(number, pair_create)
    if gen.antihermiticity_residual() > _ANTIHERM_TOL:
        raise UnitarityError(
            "constructed generator is not anti-Hermitian; "
            "first-order data mixes incompatible sign conventions"
        )
    object.__setattr__(model, "_generator", gen)
    return gen


@functools.cache
def _ladder_rows(modes: int, cutoff: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Every possible row of K on a layout, in the order terms are summed.

    Row e maps |occ> to
    coeff_e * scale_e * sqrt((occ[a_e] + da_e) (occ[b_e] + db_e)) |occ + shift_e>;
    the square root is zero exactly where the row lowers an empty mode.
    The rows are the number entries a_m^dag a_n in (m, n) order, then for
    each pair p <= q in (p, q) order its creation row C_pq a_p^dag a_q^dag
    and its annihilation row -conj(C_pq) a_p a_q.  For p < q the symmetric
    pair contributes twice, cancelling the 1/2 of (1/2) sum_pq; the
    diagonal keeps it.  Returns the integer table with columns
    [a, b, da, db, rank step of shift], the scales, and the (p, q) index
    arrays of the pairs.
    """
    eye = np.eye(modes, dtype=np.int64)
    m, n = np.divmod(np.arange(modes * modes), modes)
    p, q = np.triu_indices(modes)
    diag = (p == q).astype(np.int64)
    zeros, ones = np.zeros_like(p), np.ones_like(p)
    number = np.column_stack([n, m, np.zeros_like(n), m != n, eye[m] - eye[n]])
    create = np.column_stack([p, q, ones, 1 + diag, eye[p] + eye[q]])
    annihilate = np.column_stack([p, q, zeros, -diag, -(eye[p] + eye[q])])
    pairs = np.stack([create, annihilate], axis=1).reshape(-1, 4 + modes)
    rows = np.concatenate([number, pairs])
    table = np.column_stack([rows[:, :4], ModeLayout(modes, cutoff).ranks_of(rows[:, 4:])])
    scale = np.concatenate([np.ones(m.size), np.repeat(np.where(diag, 0.5, 1.0), 2)])
    for array in (table, scale):
        array.flags.writeable = False
    return table, scale, (p, q)


def apply_generator(gen: GeneratorK, state: StateVector) -> StateVector:
    """Sparse application of K to a state; over-cutoff terms leak.

    Every (term, nonzero row) contribution is formed at once.  The
    contributions to one output occupation are added in the order input
    terms (lexicographic), then rows, with the rounding of scalar complex
    arithmetic.
    """
    layout = state.layout
    modes = layout.mode_count
    if gen.mode_count != modes:
        raise ValueError("generator and state have different mode counts")
    table, scale, upper = _ladder_rows(modes, layout.cutoff)
    pair = gen.pair_create[upper]
    coeff = np.empty(len(table), dtype=np.complex128)
    coeff[: modes * modes] = gen.number.ravel()
    coeff[modes * modes :: 2] = pair
    coeff[modes * modes + 1 :: 2] = -pair.conj()
    nonzero = np.flatnonzero(coeff)
    rows, coeff, scale = table[nonzero], coeff[nonzero], scale[nonzero]
    # The offsets of a creation row are its raised occupations, so the
    # largest lifted entry is the largest output occupation that can
    # pass the cutoff (every other mode keeps or lowers its occupation).
    lifted = state.occupations()[:, rows[:, :2]] + rows[:, 2:4]  # (terms, rows, 2)
    factor = np.sqrt(lifted.prod(axis=2))
    value = _cmul(state.amplitudes[:, None], coeff) * scale * factor
    live = factor > 0.0
    over = lifted.max(axis=2) > layout.cutoff
    lost = float(_abs2(value[live & over]).sum()) if over.any() else 0.0
    kept = live & ~over
    ranks, slots = _unique_slots((state.ranks[:, None] + rows[:, 4])[kept])
    amps = _sum_by(slots, value[kept], ranks.size)
    return StateVector._from_ranks(layout, ranks, amps, state.leakage + lost)


def free_evolution(model: BogoliubovFirstOrder, state: StateVector) -> StateVector:
    """Multiply each basis term by prod_n G_n^occupation."""
    return _free_evolution(model, [state])[0]


def _free_evolution(
    model: BogoliubovFirstOrder, states: list[StateVector]
) -> list[StateVector]:
    """:func:`free_evolution` of states on one layout, in one pass over the modes."""
    layout = states[0].layout
    if model.mode_count != layout.mode_count:
        raise ValueError("model and state have different mode counts")
    ranks = np.concatenate([s.ranks for s in states])
    factors = np.power(model.G, layout.occupations_of(ranks))
    # G**0 = 1 multiplies exactly, so empty modes need not be skipped.
    phase = factors[:, 0]
    for column in factors.T[1:]:
        phase = _cmul(phase, column)
    amps = _cmul(np.concatenate([s.amplitudes for s in states]), phase)
    out, start = [], 0
    for s in states:
        stop = start + len(s)
        out.append(StateVector._from_ranks(layout, s.ranks, amps[start:stop], s.leakage))
        start = stop
    return out


def transform_first_order(
    model: BogoliubovFirstOrder, state: StateVector
) -> FirstOrderPair:
    """Zeroth- and first-order output states for a normalized input.

    Requires cutoff headroom of two above the largest input occupation,
    so the pair-creation terms of psi1 are represented without leakage.
    """
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    needed = state.max_occupation() + CUTOFF_HEADROOM
    if needed > state.layout.cutoff:
        raise BudgetError(
            f"cutoff {state.layout.cutoff} too small: occupations up to "
            f"{state.max_occupation()} require cutoff >= {needed}"
        )
    gen = build_generator(model)
    k_psi = apply_generator(gen, state)
    if k_psi.leakage - state.leakage > 1e-10:
        raise BudgetError(
            f"first-order truncation leakage {k_psi.leakage:.3e} exceeds budget"
        )
    psi0, psi1 = _free_evolution(model, [state, k_psi])
    return FirstOrderPair(psi0, psi1)


def validity_check(theta: float, qfi: float) -> tuple[float, bool]:
    """Perturbative smallness monitor: ratio = theta^2 * qfi / 4.

    The expansion is trusted while the ratio stays below 0.01.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if qfi < 0:
        raise ValueError("qfi must be non-negative")
    ratio = theta * theta * qfi / 4.0
    if not math.isfinite(ratio):
        raise ValueError(
            f"validity ratio theta^2 * qfi / 4 is not finite (theta {theta!r}, qfi {qfi!r})"
        )
    return ratio, ratio < VALIDITY_THRESHOLD
