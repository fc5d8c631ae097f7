"""First-order transformed states under a Bogoliubov model.

The transformation is realized as U(theta) = U0 (1 + theta K) + O(theta^2),
where U0 multiplies each basis state by prod_n G_n^occupation and K is
the quadratic anti-Hermitian generator determined by the first-order
coefficients:

    K = sum_mn G_n conj(alpha1_mn) a_m^dag a_n
      + (1/2) sum_pq C_pq a_p^dag a_q^dag
      - (1/2) sum_pq conj(C_pq) a_p a_q,       C_pq = -conj(G_q) conj(beta1_pq).

The route returns psi0 = psi and psi1 = K psi, with U0 applied to
neither.  U0 does not depend on theta and is a product of single-mode
phases, so it factors over every kept/complement cut: it cancels from
<psi1|psi1> and <psi0|psi1>, and on each projection <psi0_k|<i|psi1> of
the tracing loss it leaves a phase, which the modulus drops.  No QFI or
tracing loss depends on it.

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
    _cmul,
    _sum_by,
    _unique_slots,
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
    """Zeroth- and first-order transformed states, without the free evolution.

    psi0 is the input psi and psi1 is K psi; U0 is applied to neither,
    because it changes no QFI or tracing loss (see the module docstring).
    psi0 is normalized; psi1 generally is not.  <psi0|psi1> is purely
    imaginary because K is anti-Hermitian.
    """

    psi0: StateVector
    psi1: StateVector


def build_generator(model: BogoliubovFirstOrder) -> GeneratorK:
    """Construct K from a validated model; asserts anti-Hermiticity.

    K is kept on the model instance, so it is built once however many
    transforms use it (and ``ensure_validated`` validates an instance
    once).  The model's arrays are read-only copies made at construction,
    so the kept K cannot go stale.  A model that fails is not kept and
    fails again on every call.
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
    """Sparse application of K to a state on its own layout.

    A nonzero contribution that would pass the cutoff raises BudgetError
    (``transform_first_order`` keeps ``CUTOFF_HEADROOM`` so that none
    does).  Every (term, nonzero row) contribution is formed at once.  The
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
    # The product is formed in float64: in int64 it wraps once occupations
    # pass about 3e9, which a one-mode layout allows.
    factor = np.sqrt(lifted[..., 0].astype(float) * lifted[..., 1])
    value = _cmul(state.amplitudes[:, None], coeff) * scale * factor
    live = factor > 0.0
    top = lifted.max(axis=2)
    if (live & (top > layout.cutoff)).any():
        raise BudgetError(
            f"cutoff {layout.cutoff} too small: the generator raises occupations "
            f"up to {int(top[live].max())}"
        )
    ranks, slots = _unique_slots((state.ranks[:, None] + rows[:, 4])[live])
    amps = _sum_by(slots, value[live], ranks.size)
    return StateVector._from_ranks(layout, ranks, amps)


def transform_first_order(
    model: BogoliubovFirstOrder, state: StateVector
) -> FirstOrderPair:
    """The pair (psi, K psi) for a normalized input psi.

    Requires the cutoff to exceed the largest input occupation by
    ``CUTOFF_HEADROOM`` (pair creation raises an occupation by two), so
    every term of psi1 is inside the truncation; a smaller cutoff raises
    BudgetError.
    """
    if not state.is_normalized(1e-9):
        raise ValueError("input state must be normalized")
    needed = state.max_occupation() + CUTOFF_HEADROOM
    if needed > state.layout.cutoff:
        raise BudgetError(
            f"cutoff {state.layout.cutoff} too small: occupations up to "
            f"{state.max_occupation()} require cutoff >= {needed}"
        )
    return FirstOrderPair(state, apply_generator(build_generator(model), state))


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
