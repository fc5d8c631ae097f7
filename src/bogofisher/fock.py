"""Sparse states and operators on a truncated multimode Fock space.

Basis states are occupation-number tuples, one entry per mode, each
bounded by a uniform per-mode cutoff.  Basis ordering is lexicographic
on the occupation vectors so that dense realizations are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import BudgetError

PRUNE_EPS = 1e-15
DENSE_DIM_BUDGET = 65536
NORM_TOL = 1e-12

Occupation = tuple[int, ...]


@dataclass(frozen=True)
class ModeLayout:
    """Truncation of a multimode Fock space to a uniform per-mode cutoff."""

    mode_count: int
    cutoff: int

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise ValueError("mode_count must be at least 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if self.basis_size > DENSE_DIM_BUDGET:
            raise BudgetError(
                f"basis size {(self.cutoff + 1)}^{self.mode_count} exceeds the "
                f"dense-dimension budget {DENSE_DIM_BUDGET}"
            )

    @property
    def basis_size(self) -> int:
        return (self.cutoff + 1) ** self.mode_count

    def contains(self, occ: Occupation) -> bool:
        return len(occ) == self.mode_count and all(
            0 <= n <= self.cutoff for n in occ
        )

    def index_of(self, occ: Occupation) -> int:
        """Lexicographic rank of an occupation vector (first mode most significant)."""
        idx = 0
        for n in occ:
            idx = idx * (self.cutoff + 1) + n
        return idx

    def occupation_of(self, index: int) -> Occupation:
        dim = self.cutoff + 1
        occ = []
        for _ in range(self.mode_count):
            index, n = divmod(index, dim)
            occ.append(n)
        return tuple(reversed(occ))

    def basis(self) -> Iterator[Occupation]:
        """All occupation vectors in lexicographic order, vacuum first."""
        return itertools.product(range(self.cutoff + 1), repeat=self.mode_count)

    def vacuum_occupation(self) -> Occupation:
        return (0,) * self.mode_count


@dataclass(frozen=True)
class ModeSubset:
    """Ordered set of accessible mode indices; the complement is derived."""

    indices: tuple[int, ...]

    @staticmethod
    def of(indices: Iterable[int]) -> "ModeSubset":
        idx = tuple(sorted(set(int(i) for i in indices)))
        if not idx:
            raise ValueError("mode subset must be non-empty")
        if idx[0] < 0:
            raise ValueError("mode indices must be non-negative")
        return ModeSubset(idx)

    def validate_for(self, layout: ModeLayout) -> None:
        if self.indices and self.indices[-1] >= layout.mode_count:
            raise ValueError(
                f"mode index {self.indices[-1]} out of range for "
                f"{layout.mode_count} modes"
            )

    def complement(self, mode_count: int) -> tuple[int, ...]:
        kept = set(self.indices)
        return tuple(m for m in range(mode_count) if m not in kept)


class StateVector:
    """Sparse complex superposition over occupation-number basis states.

    Treated as immutable after construction.  ``leakage`` accumulates the
    squared magnitudes of contributions dropped past the cutoff by
    operator applications; it is a truncation-quality monitor, not part
    of the state.  A NaN or infinite amplitude raises ValueError.
    """

    __slots__ = ("layout", "_amp", "leakage")

    def __init__(
        self,
        layout: ModeLayout,
        amplitudes: Mapping[Occupation, complex],
        leakage: float = 0.0,
        prune: float = PRUNE_EPS,
    ) -> None:
        self.layout = layout
        amp: dict[Occupation, complex] = {}
        for occ, value in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if not layout.contains(occ):
                raise ValueError(f"occupation {occ} outside layout {layout}")
            c = complex(value)
            size = abs(c)
            # "not <" so that NaN, which fails every comparison, is refused too.
            if not size < math.inf:
                raise ValueError(f"non-finite amplitude {c} at occupation {occ}")
            if size > prune:
                amp[occ] = c
        self._amp = amp
        self.leakage = float(leakage)

    @classmethod
    def vacuum(cls, layout: ModeLayout) -> "StateVector":
        return cls(layout, {layout.vacuum_occupation(): 1.0})

    @classmethod
    def from_occupation(cls, layout: ModeLayout, occ: Iterable[int]) -> "StateVector":
        return cls(layout, {tuple(int(n) for n in occ): 1.0})

    @classmethod
    def from_dense(
        cls, layout: ModeLayout, vec: np.ndarray, leakage: float = 0.0
    ) -> "StateVector":
        vec = np.asarray(vec)
        if vec.shape != (layout.basis_size,):
            raise ValueError("dense vector has wrong dimension for layout")
        amp = {
            layout.occupation_of(i): vec[i]
            for i in np.flatnonzero(np.abs(vec) > PRUNE_EPS)
        }
        return cls(layout, amp, leakage=leakage)

    def items(self) -> list[tuple[Occupation, complex]]:
        """Amplitude terms sorted lexicographically (deterministic reductions)."""
        return sorted(self._amp.items())

    def support(self) -> tuple[Occupation, ...]:
        return tuple(sorted(self._amp))

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self._amp.get(tuple(int(n) for n in occ), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._amp)

    def norm_squared(self) -> float:
        return math.fsum(abs(c) ** 2 for _, c in self.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_squared() - 1.0) < tol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector(
            self.layout,
            {occ: factor * c for occ, c in self._amp.items()},
            leakage=self.leakage,
        )

    def add(self, other: "StateVector") -> "StateVector":
        if other.layout != self.layout:
            raise ValueError("layout mismatch")
        amp = dict(self._amp)
        for occ, c in other.items():
            amp[occ] = amp.get(occ, 0.0) + c
        return StateVector(self.layout, amp, leakage=self.leakage + other.leakage)

    def max_occupation(self) -> int:
        return max((max(occ) for occ in self._amp), default=0)

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(self.layout.basis_size, dtype=np.complex128)
        for occ, c in self._amp.items():
            vec[self.layout.index_of(occ)] = c
        return vec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{occ}: {c:.4g}" for occ, c in self.items()[:6])
        more = "" if len(self._amp) <= 6 else ", ..."
        return f"StateVector({terms}{more})"


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense Hermitian operator in the occupation basis of a mode subset."""

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.layout.basis_size, self.layout.basis_size):
            raise ValueError("density matrix shape does not match layout")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
            raise ValueError("density matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, state: StateVector) -> complex:
        """<psi| rho |psi> for a state on the same (kept-mode) layout."""
        if state.layout != self.layout:
            raise ValueError("layout mismatch")
        v = state.to_dense()
        # Not a BLAS gemv: from dimension 81 up it wakes BLAS threads that spin.
        return complex(np.vdot(v, np.einsum("ij,j->i", self.matrix, v)))


def create(state: StateVector, mode: int) -> StateVector:
    """Apply the creation operator for one mode; amplitude factor sqrt(n+1).

    Contributions that would exceed the cutoff are dropped and their
    squared norm added to the result's leakage counter.
    """
    _check_mode(state.layout, mode)
    amp: dict[Occupation, complex] = {}
    lost = 0.0
    for occ, c in state.items():
        n = occ[mode]
        if n + 1 > state.layout.cutoff:
            lost += abs(c) ** 2
            continue
        new = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        amp[new] = amp.get(new, 0.0) + c * math.sqrt(n + 1)
    return StateVector(state.layout, amp, leakage=state.leakage + lost)


def annihilate(state: StateVector, mode: int) -> StateVector:
    """Apply the annihilation operator for one mode; amplitude factor sqrt(n)."""
    _check_mode(state.layout, mode)
    amp: dict[Occupation, complex] = {}
    for occ, c in state.items():
        n = occ[mode]
        if n == 0:
            continue
        new = occ[:mode] + (n - 1,) + occ[mode + 1 :]
        amp[new] = amp.get(new, 0.0) + c * math.sqrt(n)
    return StateVector(state.layout, amp, leakage=state.leakage)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument."""
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0 + 0.0j
    for occ, _ in small.items():
        total += a.amplitude(occ).conjugate() * b.amplitude(occ)
    return total


def average_particle_number(state: StateVector) -> float:
    """Mean total occupation sum_basis |c|^2 * (sum_m n_m) of a normalized state."""
    if abs(state.norm_squared() - 1.0) > 1e-9:
        raise ValueError("average_particle_number requires a normalized state")
    return math.fsum(abs(c) ** 2 * sum(occ) for occ, c in state.items())


def enumerate_complement_basis(
    layout: ModeLayout, keep: ModeSubset
) -> Iterator[Occupation]:
    """All occupation vectors of the complement modes, vacuum first.

    With an empty complement this yields exactly one empty tuple.
    """
    keep.validate_for(layout)
    comp = keep.complement(layout.mode_count)
    return itertools.product(range(layout.cutoff + 1), repeat=len(comp))


def partial_trace(state: StateVector, keep: ModeSubset) -> DensityOperator:
    """Reduced density operator on ``keep``; trace equals the input squared norm."""
    keep.validate_for(state.layout)
    kept = keep.indices
    comp = keep.complement(state.layout.mode_count)
    sub_layout = ModeLayout(len(kept), state.layout.cutoff)
    dim = sub_layout.basis_size
    # Group amplitudes by the traced-out occupation; each group contributes
    # a rank-one outer product.
    groups: dict[Occupation, dict[int, complex]] = {}
    for occ, c in state.items():
        c_part = tuple(occ[m] for m in comp)
        k_index = sub_layout.index_of(tuple(occ[m] for m in kept))
        groups.setdefault(c_part, {})[k_index] = c
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for c_part in sorted(groups):
        vec = np.zeros(dim, dtype=np.complex128)
        for k_index, c in groups[c_part].items():
            vec[k_index] = c
        rho += np.outer(vec, vec.conj())
    return DensityOperator(sub_layout, rho)


def _check_mode(layout: ModeLayout, mode: int) -> None:
    if not 0 <= mode < layout.mode_count:
        raise ValueError(f"mode {mode} out of range for {layout.mode_count} modes")
