"""Quantum Fisher information quantities for first-order Bogoliubov models.

All-mode estimation uses the pure-state expression

    I = 4 ( <psi1|psi1> - |<psi0|psi1>|^2 ),

and restricting measurements to a mode subset k removes the tracing loss

    Delta_tr = 4 sum_{i != 0} |<psi0_k| <i_notk| psi1>|^2,

where i runs over the non-vacuum occupation basis of the traced modes.
One closed form covers every product Fock input |n> = (x)_k |n_k>
(``qfi_fock_closed``); it and the vacuum lower bound on the tracing loss
are provided alongside the general projections.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovFirstOrder
from .errors import NumericalBreakdownError, SupportError
from .fock import (
    DensityOperator,
    ModeSubset,
    StateVector,
    _abs2,
    _cmul,
    _lookup,
    _sum_by,
    _unique_slots,
    inner_product,
)
from .perturb import FirstOrderPair, transform_first_order, validity_check

logger = logging.getLogger(__name__)

DEFAULT_THETA = 1e-3

_BREAKDOWN_TOL = 1e-10
_IMAG_ERROR = 1e-9
_IMAG_WARN = 1e-12


@dataclass(frozen=True)
class QfiReport:
    """QFI value with a named term breakdown and Cramer-Rao accessor."""

    qfi: float
    breakdown: tuple[tuple[str, float], ...]
    theta: float
    validity_ratio: float
    validity_ok: bool
    tracing_loss: float | None = None

    def __post_init__(self) -> None:
        total = math.fsum(v for _, v in self.breakdown)
        if abs(total - self.qfi) > _BREAKDOWN_TOL * max(1.0, abs(self.qfi)):
            raise ValueError("breakdown terms do not sum to the QFI")

    def cramer_rao(self, nu: int = 1) -> float:
        """Lower bound on the estimator deviation for nu repetitions."""
        if nu < 1:
            raise ValueError("repetition count must be positive")
        if self.qfi <= 0.0:
            return math.inf
        return 1.0 / math.sqrt(nu * self.qfi)


def _report(
    terms: list[tuple[str, float]],
    theta: float,
    tracing_loss: float | None = None,
) -> QfiReport:
    # fsum raises ValueError on inf - inf: refuse the overflowed term first.
    for name, value in terms:
        if not math.isfinite(value):
            raise NumericalBreakdownError(
                f"QFI term {name} evaluated to {value}; numerical breakdown"
            )
    qfi = math.fsum(v for _, v in terms)
    qfi = _clamp_nonnegative(qfi)
    ratio, ok = validity_check(theta, qfi)
    return QfiReport(qfi, tuple(terms), theta, ratio, ok, tracing_loss)


def qfi_pure(pair: FirstOrderPair) -> float:
    """All-mode QFI 4(<psi1|psi1> - |<psi0|psi1>|^2); non-negative."""
    norm1 = pair.psi1.norm_squared()
    overlap = inner_product(pair.psi0, pair.psi1)
    return _clamp_nonnegative(4.0 * (norm1 - abs(overlap) ** 2))


def overlap_penalty(pair: FirstOrderPair) -> float:
    """|<psi0|psi1>|^2, the superposition penalty inside the pure QFI."""
    return abs(inner_product(pair.psi0, pair.psi1)) ** 2


def qfi_pure_report(pair: FirstOrderPair, theta: float = DEFAULT_THETA) -> QfiReport:
    norm_term = 4.0 * pair.psi1.norm_squared()
    # 0.0 - x rather than -x: a zero penalty prints as 0.0, not -0.0.
    penalty = 0.0 - 4.0 * overlap_penalty(pair)
    return _report(
        [("first_order_norm", norm_term), ("projection_penalty", penalty)], theta
    )


def _complement_reference(complement_ranks: np.ndarray) -> int:
    """The complement rank shared by every support state."""
    if not complement_ranks.size or (complement_ranks != complement_ranks[0]).any():
        raise SupportError(
            "state support outside keep: the complement occupation varies "
            "across the superposition, so the reduced zeroth-order state is "
            "not pure"
        )
    return int(complement_ranks[0])


def _pair_and_loss(
    model: BogoliubovFirstOrder, state: StateVector, keep: ModeSubset | None
) -> tuple[FirstOrderPair, float | None]:
    """One first-order transform, and the tracing loss on ``keep`` (None without)."""
    if keep is None:
        return transform_first_order(model, state), None
    layout = state.layout
    keep.validate_for(layout)
    reference = _complement_reference(layout.subset_ranks(state.occupations(), keep)[1])
    pair = transform_first_order(model, state)
    # psi0 shares one complement occupation, so its kept ranks are sorted.
    kept0, _ = layout.subset_ranks(pair.psi0.occupations(), keep)
    kept1, comp1 = layout.subset_ranks(pair.psi1.occupations(), keep)
    pos, hit = _lookup(kept0, kept1)
    products = _cmul(pair.psi0.amplitudes[pos[hit]].conj(), pair.psi1.amplitudes[hit])
    groups, slots = _unique_slots(comp1[hit])
    projected = _sum_by(slots, products, groups.size)
    loss = 4.0 * math.fsum(_abs2(projected[groups != reference]).tolist())
    return pair, loss


def tracing_loss(
    model: BogoliubovFirstOrder, state: StateVector, keep: ModeSubset
) -> float:
    """QFI lost to tracing out the complement of ``keep``.

    The input must factor as a kept-modes state times one fixed
    complement occupation (vacuum in the standard preparation), so that
    the reduced zeroth-order state is pure.  The loss sums the squared
    projections of psi1 onto the zeroth-order kept state combined with
    every complement basis state other than the reference occupation.
    """
    _, loss = _pair_and_loss(model, state, keep)
    return loss


def qfi_reduced(
    model: BogoliubovFirstOrder,
    state: StateVector,
    keep: ModeSubset,
    theta: float = DEFAULT_THETA,
) -> QfiReport:
    """Reduced-state QFI: the pure value minus the tracing loss."""
    pair, loss = _pair_and_loss(model, state, keep)
    pure = qfi_pure(pair)
    if pure - loss < -1e-9 * max(1.0, pure):
        raise ValueError(
            f"tracing loss {loss} exceeds the pure QFI {pure}; "
            "upstream projection is inconsistent"
        )
    return _report(
        [("pure", pure), ("tracing_loss", 0.0 - min(loss, pure))],
        theta,
        tracing_loss=loss,
    )


def vacuum_loss_bound(model: BogoliubovFirstOrder, keep: ModeSubset) -> float:
    """Lower bound 2 sum_{p,q notin keep} |beta1_pq|^2 on the tracing loss.

    Attained exactly by the vacuum, and by any input whose superposition
    components never differ by a single excitation.
    """
    comp = keep.complement(model.mode_count)
    if not comp:
        return 0.0
    sub = model.beta1[np.ix_(comp, comp)]
    return 2.0 * float(np.sum(np.abs(sub) ** 2))


def vacuum_qfi(model: BogoliubovFirstOrder) -> float:
    """All-mode QFI of the vacuum input: 2 sum_pq |beta1_pq|^2."""
    return 2.0 * float(np.sum(np.abs(model.beta1) ** 2))


def qfi_fock_closed(
    model: BogoliubovFirstOrder,
    occ: Sequence[int] | np.ndarray,
    theta: float = DEFAULT_THETA,
) -> QfiReport:
    """Closed form for any product Fock input |n> = (x)_k |n_k>.

    With W = |alpha1|^2 + |beta1|^2 elementwise and its diagonal zeroed,

        F = 2 sum_pq |beta1_pq|^2 + 2 sum_k n_k(n_k+1)|beta1_kk|^2
          + 4 sum_k n_k sum_p W_pk + 4 n^T W n:

    the vacuum contribution common to every input, the diagonal
    squeezing, the single-excitation exchange and the cross-mode term.
    The diagonal alpha terms cancel against the projection penalty and do
    not appear.  Occupations are read as floats, so no product overflows.
    """
    n = np.asarray(occ, dtype=float)
    if n.shape != (model.mode_count,):
        raise ValueError(f"expected {model.mode_count} occupations, got shape {n.shape}")
    if not (n >= 0.0).all():
        raise ValueError("occupations must be non-negative")
    # np.hypot rounds as abs() of a scalar complex does; np.abs on an array
    # may differ in the last bit, which can move a printed scan digit.
    squeezing = np.hypot(model.beta1.real, model.beta1.imag) ** 2
    weight = np.hypot(model.alpha1.real, model.alpha1.imag) ** 2 + squeezing
    np.fill_diagonal(weight, 0.0)
    terms = [
        ("vacuum", vacuum_qfi(model)),
        ("diagonal_squeezing", 2.0 * float(n * (n + 1.0) @ squeezing.diagonal())),
        ("single_excitation", 4.0 * float(n @ weight.sum(axis=0))),
        ("cross_mode", 4.0 * float(n @ weight @ n)),
    ]
    return _report(terms, theta)


def qfi_mixed_matrix_element(rho2: DensityOperator, psi0_k: StateVector) -> float:
    """Reduced-state QFI from the single matrix element -4 <psi0|rho2|psi0>.

    ``rho2`` is the second-order coefficient of the reduced-state expansion
    (for example extracted by the oracle's finite differences) and
    ``psi0_k`` the zeroth-order reduced pure state.
    """
    matrix = rho2.matrix
    scale = max(1.0, float(np.max(np.abs(matrix))) if matrix.size else 1.0)
    defect = float(np.max(np.abs(matrix - matrix.conj().T)))
    if defect > 1e-9 * scale:
        raise ValueError(f"density correction is not Hermitian (defect {defect:.3e})")
    value = rho2.expectation(psi0_k)
    imag = abs(value.imag)
    if imag > _IMAG_ERROR * max(1.0, abs(value.real)):
        raise ValueError(
            f"matrix element has imaginary part {value.imag:.3e}; "
            "Hermiticity is broken upstream"
        )
    if imag > _IMAG_WARN:
        logger.warning("dropping small imaginary part %.3e of QFI matrix element", imag)
    return -4.0 * value.real


def _clamp_nonnegative(value: float) -> float:
    if not -1e-9 <= value < math.inf:  # refuses NaN too
        raise NumericalBreakdownError(f"QFI evaluated to {value}; numerical breakdown")
    return max(value, 0.0)
