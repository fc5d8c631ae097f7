"""Sparse states and operators on a truncated multimode Fock space.

Basis states are occupation-number tuples, one entry per mode, each
bounded by a uniform per-mode cutoff.  Basis ordering is lexicographic
on the occupation vectors so that dense realizations are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetError

PRUNE_EPS = 1e-15
DENSE_DIM_BUDGET = 65536
NORM_TOL = 1e-12

Occupation = tuple[int, ...]


@dataclass(frozen=True)
class ModeLayout:
    """Truncation of a multimode Fock space to a uniform per-mode cutoff.

    A basis state is ranked lexicographically on its occupations, first
    mode most significant (:meth:`ranks_of`); the rank is also its index
    in a dense vector.  A layout is refused when its ranks, plus one
    ladder step, could overflow ``int64``; reading :attr:`basis_size`,
    which every dense allocation does, is refused past
    ``DENSE_DIM_BUDGET``.
    """

    mode_count: int
    cutoff: int

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise ValueError("mode_count must be at least 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        # A rank and a ladder step are each at most (cutoff + 1)^M, so at
        # most 2^62 basis states keeps their sum inside int64.
        if self.cutoff and (self.mode_count > 62 or self._size() > 2**62):
            raise BudgetError(
                f"basis size {self.cutoff + 1}^{self.mode_count} exceeds 2^62, "
                "the range of int64 ranks"
            )

    def _size(self) -> int:
        return (self.cutoff + 1) ** self.mode_count

    @property
    def basis_size(self) -> int:
        """Dimension of the dense realization, within ``DENSE_DIM_BUDGET``."""
        size = self._size()
        if size > DENSE_DIM_BUDGET:
            raise BudgetError(
                f"basis size {self.cutoff + 1}^{self.mode_count} exceeds the "
                f"dense-dimension budget {DENSE_DIM_BUDGET}"
            )
        return size

    def ranks_of(self, occupations: np.ndarray) -> np.ndarray:
        """Lexicographic ranks of the rows of an occupation array."""
        return occupations @ _place_values(self.cutoff, self.mode_count)

    def subset_ranks(
        self, occupations: np.ndarray, keep: ModeSubset
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranks of each row's kept part and of its complement part.

        Each part is ranked in the layout of its own modes at this cutoff.
        """
        split = occupations @ _split_places(self.cutoff, self.mode_count, keep.indices)
        return split[:, 0], split[:, 1]

    def occupations_of(self, ranks: np.ndarray) -> np.ndarray:
        """Occupation rows (first mode first) of an array of ranks."""
        places = _place_values(self.cutoff, self.mode_count)
        return ranks[:, None] // places % (self.cutoff + 1)


@functools.cache
def _place_values(cutoff: int, width: int) -> np.ndarray:
    """Rank weight (cutoff + 1)^(width - 1 - i) of position i of an occupation."""
    places = (cutoff + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    places.flags.writeable = False
    return places


@functools.cache
def _split_places(cutoff: int, mode_count: int, kept: tuple[int, ...]) -> np.ndarray:
    """Place values of the kept modes (column 0) and of the rest (column 1)."""
    rest = [m for m in range(mode_count) if m not in kept]
    places = np.zeros((mode_count, 2), dtype=np.int64)
    places[list(kept), 0] = _place_values(cutoff, len(kept))
    places[rest, 1] = _place_values(cutoff, len(rest))
    places.flags.writeable = False
    return places


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
        if self.indices:
            _check_mode(layout.mode_count, self.indices[-1])

    def complement(self, mode_count: int) -> tuple[int, ...]:
        kept = set(self.indices)
        return tuple(m for m in range(mode_count) if m not in kept)


class StateVector:
    """Sparse complex superposition over occupation-number basis states.

    Held as two arrays: the sorted lexicographic ranks of the occupied
    basis states (``layout.ranks_of``, which is also the dense index) and
    their complex128 amplitudes.  Treated as immutable after construction.
    An occupation outside the layout, or a NaN or infinite amplitude,
    raises ValueError; amplitudes of modulus at most ``prune`` are
    dropped.  Operators that would move a term past the cutoff refuse
    rather than drop it (see ``perturb.apply_generator``).
    """

    __slots__ = ("layout", "_ranks", "_amps")

    def __init__(
        self,
        layout: ModeLayout,
        amplitudes: Mapping[Occupation, complex],
        prune: float = PRUNE_EPS,
    ) -> None:
        keys = list(amplitudes)
        try:
            occ = np.array(keys, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"occupations outside layout {layout}: {exc}") from exc
        if not keys:
            occ = occ.reshape(0, layout.mode_count)
        elif occ.ndim != 2 or occ.shape[1] != layout.mode_count:
            raise ValueError(f"occupation {keys[0]} outside layout {layout}")
        outside = ((occ < 0) | (occ > layout.cutoff)).any(axis=1)
        if outside.any():
            bad = tuple(occ[int(np.argmax(outside))].tolist())
            raise ValueError(f"occupation {bad} outside layout {layout}")
        ranks = layout.ranks_of(occ)
        order = np.argsort(ranks)
        ranks = ranks[order]
        if np.any(ranks[1:] == ranks[:-1]):
            raise ValueError("duplicate occupation in amplitudes")
        values = np.array(list(amplitudes.values()), dtype=np.complex128)
        self._assign(layout, ranks, values[order], prune)

    @classmethod
    def _from_ranks(
        cls,
        layout: ModeLayout,
        ranks: np.ndarray,
        amplitudes: np.ndarray,
        prune: float = PRUNE_EPS,
    ) -> "StateVector":
        """State from sorted, distinct, in-layout ranks and their amplitudes."""
        state = cls.__new__(cls)
        state._assign(layout, ranks, amplitudes, prune)
        return state

    def _assign(
        self, layout: ModeLayout, ranks: np.ndarray, amplitudes: np.ndarray, prune: float
    ) -> None:
        size = np.hypot(amplitudes.real, amplitudes.imag)
        # "not <" so that NaN, which fails every comparison, is refused too.
        if not size.max(initial=0.0) < math.inf:
            i = int(np.argmin(size < math.inf))
            occ = tuple(layout.occupations_of(ranks[i : i + 1])[0].tolist())
            raise ValueError(f"non-finite amplitude {amplitudes[i]} at occupation {occ}")
        kept = size > prune
        self.layout = layout
        self._ranks = ranks[kept]
        self._amps = amplitudes[kept]
        self._ranks.flags.writeable = False
        self._amps.flags.writeable = False

    @classmethod
    def vacuum(cls, layout: ModeLayout) -> "StateVector":
        return cls.from_occupation(layout, (0,) * layout.mode_count)

    @classmethod
    def from_occupation(cls, layout: ModeLayout, occ: Iterable[int]) -> "StateVector":
        return cls(layout, {tuple(int(n) for n in occ): 1.0})

    @classmethod
    def from_dense(cls, layout: ModeLayout, vec: np.ndarray) -> "StateVector":
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (layout.basis_size,):
            raise ValueError("dense vector has wrong dimension for layout")
        ranks = np.flatnonzero(vec)
        return cls._from_ranks(layout, ranks, vec[ranks])

    @property
    def ranks(self) -> np.ndarray:
        """Sorted lexicographic ranks (dense indices) of the terms; read-only."""
        return self._ranks

    @property
    def amplitudes(self) -> np.ndarray:
        """complex128 amplitudes aligned with :attr:`ranks`; read-only."""
        return self._amps

    def occupations(self) -> np.ndarray:
        """Occupation rows of the terms, in rank order."""
        return self.layout.occupations_of(self._ranks)

    def items(self) -> list[tuple[Occupation, complex]]:
        """Amplitude terms sorted lexicographically (deterministic reductions)."""
        return list(zip(self.support(), self._amps.tolist()))

    def support(self) -> tuple[Occupation, ...]:
        return tuple(map(tuple, self.occupations().tolist()))

    def amplitude(self, occ: Iterable[int]) -> complex:
        """The amplitude of one occupation; 0 for one outside the layout."""
        try:
            probe = StateVector.from_occupation(self.layout, occ)
        except ValueError:
            return 0.0 + 0.0j
        pos, hit = _lookup(self._ranks, probe.ranks)
        return complex(self._amps[pos[0]]) if hit[0] else 0.0 + 0.0j

    def __len__(self) -> int:
        return int(self._ranks.size)

    def norm_squared(self) -> float:
        return math.fsum(_abs2(self._amps).tolist())

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
        return StateVector._from_ranks(
            self.layout, self._ranks, _cmul(self._amps, complex(factor))
        )

    def add(self, other: "StateVector") -> "StateVector":
        if other.layout != self.layout:
            raise ValueError("layout mismatch")
        ranks, slots = _unique_slots(np.concatenate([self._ranks, other._ranks]))
        amps = _sum_by(slots, np.concatenate([self._amps, other._amps]), ranks.size)
        return StateVector._from_ranks(self.layout, ranks, amps)

    def max_occupation(self) -> int:
        return int(self.occupations().max(initial=0))

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(self.layout.basis_size, dtype=np.complex128)
        vec[self._ranks] = self._amps
        return vec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{occ}: {c:.4g}" for occ, c in self.items()[:6])
        more = "" if len(self) <= 6 else ", ..."
        return f"StateVector({terms}{more})"


def _cmul(a: np.ndarray, b) -> np.ndarray:
    """Elementwise complex product rounded as Python's ``complex * complex``.

    numpy's own complex multiply may fuse multiply-adds and then differs in
    the last bit; the first-order route keeps the bits of plain arithmetic.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br - ai * bi
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = ar * bi + ai * br
    return out


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 rounded as Python's ``abs(c) ** 2`` (hypot, then libm pow)."""
    return np.float_power(np.hypot(a.real, a.imag), 2.0)


def _lookup(ranks: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``queries`` in the sorted ``ranks``, and which are present."""
    if not ranks.size:
        return np.zeros(queries.size, dtype=np.intp), np.zeros(queries.size, dtype=bool)
    pos = np.minimum(np.searchsorted(ranks, queries), ranks.size - 1)
    return pos, ranks[pos] == queries


def _unique_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and each entry's slot among them.

    ``np.unique(values, return_inverse=True)`` without its fixed overhead,
    which dominates on the few-term states of scans and the optimizer.
    One sort: the slot of each sorted entry is the number of runs of
    equal values that start at or before it, less one, scattered back
    through the sort order.
    """
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    slots = np.empty(ordered.size, dtype=np.intp)
    slots[order] = np.cumsum(first) - 1
    return ordered[first], slots


def _sum_by(slots: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Complex sums of ``values`` grouped by ``slots``, each added in order from +0.

    ``np.add.at`` adds sequentially, as a Python accumulation loop does;
    ``np.sum`` adds pairwise and rounds differently.
    """
    out = np.zeros(count, dtype=np.complex128)
    np.add.at(out, slots, values)
    return out


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


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on the first argument.

    The products of the shared terms are added in rank order.
    """
    if a.layout != b.layout:
        raise ValueError("layout mismatch")
    pos, shared = _lookup(b.ranks, a.ranks)
    products = _cmul(a.amplitudes[shared].conj(), b.amplitudes[pos[shared]])
    # cumsum adds left to right, as a Python loop does (np.sum is pairwise).
    return complex(np.cumsum(products)[-1]) if products.size else 0.0 + 0.0j


def average_particle_number(state: StateVector) -> float:
    """Mean total occupation sum_basis |c|^2 * (sum_m n_m) of a normalized state."""
    if abs(state.norm_squared() - 1.0) > 1e-9:
        raise ValueError("average_particle_number requires a normalized state")
    totals = state.occupations().sum(axis=1)
    return math.fsum((_abs2(state.amplitudes) * totals).tolist())


def partial_trace(state: StateVector, keep: ModeSubset) -> DensityOperator:
    """Reduced density operator on ``keep``; trace equals the input squared norm."""
    keep.validate_for(state.layout)
    rho = _reduced_dense(state.to_dense(), state.layout, keep)
    return DensityOperator(ModeLayout(len(keep.indices), state.layout.cutoff), rho)


def _reduced_dense(vec: np.ndarray, layout: ModeLayout, keep: ModeSubset) -> np.ndarray:
    """Partial trace over the complement of ``keep`` of the dense vector ``vec``.

    Rows and columns are the ranks of the kept modes in their own layout.
    """
    kept = list(keep.indices)
    axes = kept + list(keep.complement(layout.mode_count))
    tensor = vec.reshape((layout.cutoff + 1,) * layout.mode_count).transpose(axes)
    flat = tensor.reshape(ModeLayout(len(kept), layout.cutoff).basis_size, -1)
    return flat @ flat.conj().T


def _check_mode(mode_count: int, mode: int) -> None:
    if not 0 <= mode < mode_count:
        raise ValueError(f"mode index {mode} out of range for {mode_count} modes")


def _check_mode_pair(mode_count: int, k: int, kprime: int) -> None:
    _check_mode(mode_count, k)
    _check_mode(mode_count, kprime)
    if k == kprime:
        raise ValueError("the two modes must be distinct")
