"""First-order Bogoliubov coefficient models.

A model consists of unit-modulus free-evolution phases G_n together
with the first-order coefficient matrices alpha1 and beta1 of the mode
transformation

    a_m  ->  sum_n ( conj(alpha_mn) a_n - conj(beta_mn) a_n^dag ),

expanded as alpha_mn = delta_mn G_n + theta * alpha1_mn + O(theta^2)
and beta_mn = theta * beta1_mn + O(theta^2).  Unitarity of the
underlying transformation constrains the first-order data:

    conj(G_m) alpha1_mn + G_n conj(alpha1_nm) = 0
    conj(G_m) beta1_mn  = conj(G_n) beta1_nm
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ModelFormatError, UnitarityError

VALIDATION_TOL = 1e-10
PHASE_TOL = 1e-12

_CONSTRAINT_MESSAGES = {
    "phase_modulus": "phase not unit modulus",
    "alpha_unitarity": "alpha first-order unitarity constraint violated",
    "beta_symmetry": "beta first-order symmetry constraint violated",
}


@dataclass(frozen=True, eq=False)
class BogoliubovFirstOrder:
    """Free-evolution phases plus first-order coefficient matrices."""

    G: np.ndarray
    alpha1: np.ndarray
    beta1: np.ndarray

    def __post_init__(self) -> None:
        G = np.array(self.G, dtype=np.complex128)
        a1 = np.array(self.alpha1, dtype=np.complex128)
        b1 = np.array(self.beta1, dtype=np.complex128)
        if G.ndim != 1:
            raise ModelFormatError("G must be a vector of per-mode phases")
        m = G.shape[0]
        if a1.shape != (m, m) or b1.shape != (m, m):
            raise ModelFormatError(
                f"alpha1 and beta1 must be {m}x{m} matrices matching G"
            )
        for arr in (G, a1, b1):
            arr.flags.writeable = False
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "beta1", b1)

    @property
    def mode_count(self) -> int:
        return int(self.G.shape[0])

    def equals(self, other: "BogoliubovFirstOrder") -> bool:
        """Bit-exact equality of all coefficient data."""
        return (
            np.array_equal(self.G, other.G)
            and np.array_equal(self.alpha1, other.alpha1)
            and np.array_equal(self.beta1, other.beta1)
        )


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    indices: tuple[int, ...]
    residual: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of the unitarity checks: passed iff no violations."""

    passed: bool
    violations: tuple[ConstraintViolation, ...]
    worst: dict[str, float]

    def summary(self) -> str:
        if self.passed:
            return "all unitarity constraints satisfied"
        parts = []
        for cid in sorted(self.worst):
            if any(v.constraint == cid for v in self.violations):
                parts.append(f"{_CONSTRAINT_MESSAGES[cid]} (worst {self.worst[cid]:.3e})")
        return "; ".join(parts)


def validate(model: BogoliubovFirstOrder, tol: float = VALIDATION_TOL) -> ValidationReport:
    """Check the three first-order unitarity constraints.

    Reports every violating index pair together with the worst residual
    per constraint.  Phase moduli are held to 1e-12; the two matrix
    constraints to ``tol``.
    """
    violations: list[ConstraintViolation] = []
    worst = {"phase_modulus": 0.0, "alpha_unitarity": 0.0, "beta_symmetry": 0.0}

    phase_res = np.abs(np.abs(model.G) - 1.0)
    worst["phase_modulus"] = float(phase_res.max())
    # Written as "not <=" so that NaN residuals (from NaN or Inf data) violate.
    for n in np.flatnonzero(~(phase_res <= PHASE_TOL)):
        violations.append(
            ConstraintViolation("phase_modulus", (int(n),), float(phase_res[n]))
        )

    Gc = model.G.conj()
    alpha_res = np.abs(Gc[:, None] * model.alpha1 + model.G[None, :] * model.alpha1.conj().T)
    worst["alpha_unitarity"] = float(alpha_res.max())
    beta_scaled = Gc[:, None] * model.beta1
    beta_res = np.abs(beta_scaled - beta_scaled.T)
    worst["beta_symmetry"] = float(beta_res.max())
    for name, res in (("alpha_unitarity", alpha_res), ("beta_symmetry", beta_res)):
        for m, n in zip(*np.nonzero(~(res <= tol))):
            violations.append(
                ConstraintViolation(name, (int(m), int(n)), float(res[m, n]))
            )

    violations.sort(key=lambda v: (v.constraint, v.indices))
    return ValidationReport(not violations, tuple(violations), worst)


def ensure_validated(model: BogoliubovFirstOrder) -> None:
    """Raise UnitarityError unless the model passes :func:`validate`.

    A pass is kept on the instance, whose arrays are read-only, so an
    instance is validated once however many callers ask.
    """
    if vars(model).get("_validated"):
        return
    report = validate(model)
    if not report.passed:
        raise UnitarityError(report.summary())
    object.__setattr__(model, "_validated", True)


def single_mode_squeezer(k: int, mode_count: int) -> BogoliubovFirstOrder:
    """Weak squeezing of one mode: beta1_kk = 1, everything else trivial."""
    _check_mode(k, mode_count)
    beta1 = np.zeros((mode_count, mode_count), dtype=np.complex128)
    beta1[k, k] = 1.0
    return BogoliubovFirstOrder(
        np.ones(mode_count), np.zeros((mode_count, mode_count)), beta1
    )


def two_mode_squeezer(k: int, kprime: int, mode_count: int) -> BogoliubovFirstOrder:
    """Weak pair creation across two modes: beta1_kk' = beta1_k'k = 1."""
    _check_mode_pair(k, kprime, mode_count)
    beta1 = np.zeros((mode_count, mode_count), dtype=np.complex128)
    beta1[k, kprime] = 1.0
    beta1[kprime, k] = 1.0
    return BogoliubovFirstOrder(
        np.ones(mode_count), np.zeros((mode_count, mode_count)), beta1
    )


def beam_splitter(k: int, kprime: int, mode_count: int) -> BogoliubovFirstOrder:
    """Weak excitation exchange: alpha1_kk' = 1, alpha1_k'k = -1.

    The antisymmetric sign pairing satisfies the alpha constraint with
    trivial phases and matches the exchange generator
    i (a_k^dag a_k' - a_k a_k'^dag) of the exact-propagator oracle.
    """
    _check_mode_pair(k, kprime, mode_count)
    alpha1 = np.zeros((mode_count, mode_count), dtype=np.complex128)
    alpha1[k, kprime] = 1.0
    alpha1[kprime, k] = -1.0
    return BogoliubovFirstOrder(
        np.ones(mode_count), alpha1, np.zeros((mode_count, mode_count))
    )


_BUILTINS = {
    "single_mode_squeezer": single_mode_squeezer,
    "two_mode_squeezer": two_mode_squeezer,
    "beam_splitter": beam_splitter,
}


def is_json_int(value: Any) -> bool:
    """True for a JSON integer: an int that is not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_model(doc: Mapping[str, Any]) -> BogoliubovFirstOrder:
    """Parse a model document without enforcing unitarity.

    Two forms are accepted: an explicit coefficient listing
    ``{"modes": M, "G": [[re, im], ...], "alpha1": [[m, n, re, im], ...],
    "beta1": [...]}`` with omitted entries zero, or a builtin reference
    ``{"builtin": name, "k": int, "kprime": int?, "modes": M}``.
    """
    if not isinstance(doc, Mapping):
        raise ModelFormatError("model document must be a JSON object")
    if "builtin" in doc:
        return _parse_builtin(doc)
    allowed = {"modes", "G", "alpha1", "beta1"}
    unknown = set(doc) - allowed
    if unknown:
        raise ModelFormatError(f"unknown model keys: {sorted(unknown)}")
    modes = doc.get("modes")
    if not is_json_int(modes) or modes < 1:
        raise ModelFormatError("'modes' must be a positive integer")
    G = np.ones(modes, dtype=np.complex128)
    if "G" in doc:
        raw = doc["G"]
        if not isinstance(raw, list) or len(raw) != modes:
            raise ModelFormatError(f"'G' must list {modes} [re, im] pairs")
        for n, pair in enumerate(raw):
            G[n] = _complex_pair(pair, "G entry")
    alpha1 = _parse_entries(doc.get("alpha1", []), modes, "alpha1")
    beta1 = _parse_entries(doc.get("beta1", []), modes, "beta1")
    return BogoliubovFirstOrder(G, alpha1, beta1)


def load_model(doc: Mapping[str, Any]) -> BogoliubovFirstOrder:
    """Parse and validate a model document; refuses non-unitary data."""
    model = parse_model(doc)
    ensure_validated(model)
    return model


def serialize_model(model: BogoliubovFirstOrder) -> dict[str, Any]:
    """Explicit-form document for a model; inverse of :func:`parse_model`."""
    out: dict[str, Any] = {
        "modes": model.mode_count,
        "G": [[float(g.real), float(g.imag)] for g in model.G],
    }
    for name, matrix in (("alpha1", model.alpha1), ("beta1", model.beta1)):
        entries = []
        for m in range(model.mode_count):
            for n in range(model.mode_count):
                value = matrix[m, n]
                if value != 0:
                    entries.append([m, n, float(value.real), float(value.imag)])
        out[name] = entries
    return out


def _parse_builtin(doc: Mapping[str, Any]) -> BogoliubovFirstOrder:
    allowed = {"builtin", "k", "kprime", "modes"}
    unknown = set(doc) - allowed
    if unknown:
        raise ModelFormatError(f"unknown model keys: {sorted(unknown)}")
    name = doc["builtin"]
    if name not in _BUILTINS:
        raise ModelFormatError(
            f"unknown builtin {name!r}; available: {sorted(_BUILTINS)}"
        )
    modes = doc.get("modes")
    if not is_json_int(modes) or modes < 1:
        raise ModelFormatError("'modes' must be a positive integer")
    k = doc.get("k")
    if not is_json_int(k):
        raise ModelFormatError("'k' must be an integer mode index")
    if name == "single_mode_squeezer":
        if "kprime" in doc:
            raise ModelFormatError("single_mode_squeezer takes no 'kprime'")
        return single_mode_squeezer(k, modes)
    kprime = doc.get("kprime")
    if not is_json_int(kprime):
        raise ModelFormatError(f"{name} requires an integer 'kprime'")
    return _BUILTINS[name](k, kprime, modes)


def _parse_entries(raw: Any, modes: int, name: str) -> np.ndarray:
    matrix = np.zeros((modes, modes), dtype=np.complex128)
    if not isinstance(raw, list):
        raise ModelFormatError(f"'{name}' must be a list of [m, n, re, im] entries")
    seen: set[tuple[int, int]] = set()
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ModelFormatError(f"'{name}' entries must be [m, n, re, im]")
        m, n, re, im = entry
        if not is_json_int(m) or not is_json_int(n):
            raise ModelFormatError(f"'{name}' indices must be integers")
        if not (0 <= m < modes and 0 <= n < modes):
            raise ModelFormatError(f"'{name}' index ({m}, {n}) out of range")
        if (m, n) in seen:
            raise ModelFormatError(f"duplicate '{name}' entry for ({m}, {n})")
        seen.add((m, n))
        matrix[m, n] = complex(_json_number(re, name), _json_number(im, name))
    return matrix


def _complex_pair(pair: Any, what: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ModelFormatError(f"{what} must be an [re, im] pair")
    return complex(_json_number(pair[0], what), _json_number(pair[1], what))


def _json_number(value: Any, what: str) -> float:
    """A JSON number (int or float, not bool) as a float; else ModelFormatError.

    Non-finite values pass: ``validate`` reports them as violations.
    """
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ModelFormatError(f"{what} coefficients must be numbers, got {value!r}")


def _check_mode(k: int, mode_count: int) -> None:
    if not 0 <= k < mode_count:
        raise ModelFormatError(f"mode index {k} out of range for {mode_count} modes")


def _check_mode_pair(k: int, kprime: int, mode_count: int) -> None:
    _check_mode(k, mode_count)
    _check_mode(kprime, mode_count)
    if k == kprime:
        raise ModelFormatError("the two coupled modes must be distinct")
