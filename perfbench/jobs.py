"""Seeded job inputs and per-job output checks for the four workloads.

Every job draws a fresh model and fresh amplitudes from
``numpy.random.default_rng([seed, index])``, so the same seed always gives
the same inputs and no two jobs of a run share a propagator.  The shape
of a job, which sets its cost (mode count, support size, keep or not, and
the occupations), depends on the job index alone: sizes cycle over an
odd-length schedule and occupations come from ``default_rng([index])``.
Runs with different seeds therefore do the same amount of work on
different numbers, and the median job falls inside one size class.

The checks use numpy alone and never import the program.  Tolerances are
those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("scan", "compare", "first-order", "optimize")
WARMUP_ID = -1

TOL_CLOSED_VS_PERTURB = 1e-10
TOL_PERTURB_VS_ORACLE = 1e-5
TOL_MIXED_VS_REDUCED = 1e-4
TOL_LOSS_BOUND = 1e-12
TOL_CONSTRAINT = 1e-9
TOL_REDUCED_PLUS_LOSS = 1e-10
TOL_OPTIMIZE_START = 1e-9

# scan: a 2 x 2 Fock grid on modes 0 and 1 of a 3-mode model.  The CLI's
# default cutoff (max occupation + 6 = 7) gives a dense dimension of 512.
SCAN_N = "0..1"
SCAN_M = "0..1"
SCAN_KEEP = (0, 1)
SCAN_POINTS = 4

# compare: every state reaches occupation 2, so the CLI's default cutoff
# (occupation + CLI_CUTOFF_MARGIN = 8) gives a dense dimension of 729.
COMPARE_MAX_OCC = 2
CLI_CUTOFF_MARGIN = 6

# first-order: mode count -> largest occupation.  cutoff = occupation + 2
# keeps (cutoff + 1) ** modes inside fock.DENSE_DIM_BUDGET (65536), which
# also caps the sparse route; at 6 modes that allows occupations up to 3.
FIRST_ORDER_MAX_OCC = {4: 6, 5: 5, 6: 3}
FIRST_ORDER_MODES = (4, 5, 6, 4, 5)
FIRST_ORDER_TERMS = (20, 65, 110, 155, 200)

OPTIMIZE_RESTARTS = 2
OPTIMIZE_MAX_ITER = 100
OPTIMIZE_MODES = (2, 3, 2, 3, 2)
OPTIMIZE_SUPPORT = (3, 4, 5, 6, 4)


@dataclass
class Step:
    """One call made inside a job.

    ``kind`` is ``cli`` (``argv`` passed to ``cli_main``), ``mixed`` (the
    API comparison of the oracle's reduced QFI from ``derivative_states``
    and ``qfi_mixed_matrix_element`` with ``qfi_reduced``) or
    ``serial_scan`` (``scan_fock(threads=1)``, for the traced baseline).
    Untimed steps exist only to check the job's answer.
    """

    kind: str
    argv: list[str] = field(default_factory=list)
    out: str | None = None
    timed: bool = True
    api: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"kind": self.kind, "argv": self.argv, "out": self.out,
                "timed": self.timed, "api": self.api}


@dataclass
class Job:
    index: int
    steps: list[Step]
    facts: dict

    def to_wire(self) -> dict:
        return {"id": self.index, "steps": [s.to_wire() for s in self.steps]}


# ---------------------------------------------------------------- models


def random_model(rng: np.random.Generator, modes: int, scale: float,
                 phases: bool) -> dict:
    """Unitarity-consistent first-order coefficients as plain arrays.

    A random Hermitian h and symmetric g give alpha1 = i conj(h) and
    beta1 = -i conj(g) with trivial phases; a row rephasing G_m -> e^{i chi_m}
    keeps both unitarity constraints exact.
    """
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    g = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = scale * 0.5 * (h + h.conj().T)
    g = scale * 0.5 * (g + g.T)
    alpha1 = 1j * h.conj()
    beta1 = -1j * g.conj()
    G = np.ones(modes, dtype=complex)
    if phases:
        G = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=modes))
        alpha1 = G[:, None] * alpha1
        beta1 = G[:, None] * beta1
    return {"G": G, "alpha1": alpha1, "beta1": beta1}


def model_document(model: dict) -> dict:
    modes = len(model["G"])

    def entries(matrix):
        return [[m, n, float(matrix[m, n].real), float(matrix[m, n].imag)]
                for m in range(modes) for n in range(modes) if matrix[m, n] != 0]

    return {
        "modes": modes,
        "G": [[float(g.real), float(g.imag)] for g in model["G"]],
        "alpha1": entries(model["alpha1"]),
        "beta1": entries(model["beta1"]),
    }


def vacuum_loss_bound(model: dict, keep: tuple[int, ...]) -> float:
    """2 sum_{p,q not kept} |beta1_pq|^2, written out from the paper."""
    comp = [m for m in range(len(model["G"])) if m not in keep]
    if not comp:
        return 0.0
    return 2.0 * float(np.sum(np.abs(model["beta1"][np.ix_(comp, comp)]) ** 2))


def state_document(occs: list[tuple[int, ...]], amps: np.ndarray) -> list:
    amps = amps / np.linalg.norm(amps)
    return [{"occ": list(o), "re": float(a.real), "im": float(a.imag)}
            for o, a in zip(occs, amps)]


def factored_support(rng: np.random.Generator, modes: int, keep: tuple[int, ...],
                     terms: int, max_occ: int, force_max: bool) -> list[tuple[int, ...]]:
    """Distinct occupations that vary on ``keep`` over one fixed complement."""
    comp_occ = {m: int(rng.integers(0, max_occ + 1)) for m in range(modes)
                if m not in keep}
    seen: dict[tuple[int, ...], None] = {}
    while len(seen) < terms:
        occ = [comp_occ.get(m, 0) for m in range(modes)]
        for m in keep:
            occ[m] = int(rng.integers(0, max_occ + 1))
        if force_max and not seen:
            occ[keep[0]] = max_occ
        seen[tuple(occ)] = None
    return list(seen)


def parse_range(text: str) -> list[int]:
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


# ------------------------------------------------------------------ jobs


def make_job(workload: str, seed: int, index: int, workdir: str) -> Job:
    """Write the job's input files under ``workdir`` and return its steps."""
    rng = np.random.default_rng([seed, index])
    shape = np.random.default_rng([index])
    return _BUILDERS[workload](rng, shape, index, os.path.join(workdir, f"j{index}"))


def warmup_job(workload: str, workdir: str) -> Job:
    """Fixed job of the workload's own kind, the same for every seed.

    Its entropy keys have three words, so it never equals a timed job.
    """
    rng, shape = np.random.default_rng([0, 0, 1]), np.random.default_rng([0, 0, 2])
    job = _BUILDERS[workload](rng, shape, 0, os.path.join(workdir, "warmup"))
    job.index = WARMUP_ID
    return job


def _scan_job(rng, shape, index, prefix) -> Job:
    model = random_model(rng, 3, 0.4, phases=False)
    model_path = _write(prefix + "_model.json", model_document(model))
    out = prefix + ".csv"
    argv = ["scan", model_path, "--n", SCAN_N, "--pair-with", "1", "--m", SCAN_M,
            "--keep", ",".join(map(str, SCAN_KEEP)), "--out", out]
    return Job(index, [Step("cli", argv, out=out)],
               {"loss_bound": vacuum_loss_bound(model, SCAN_KEEP), "model_path": model_path})


def _compare_job(rng, shape, index, prefix) -> Job:
    model = random_model(rng, 3, 0.4, phases=False)
    keep = (0,) if index % 2 else (0, 1)
    terms = 1 + index % 3
    occs = factored_support(shape, 3, keep, terms, COMPARE_MAX_OCC, force_max=True)
    amps = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    model_path = _write(prefix + "_model.json", model_document(model))
    state_path = _write(prefix + "_state.json", state_document(occs, amps))
    steps = [
        Step("cli", ["oracle-compare", model_path, "--state", state_path]),
        Step("mixed", api={"model": model_path, "state": state_path,
                           "keep": list(keep), "cutoff": COMPARE_MAX_OCC + CLI_CUTOFF_MARGIN}),
    ]
    return Job(index, steps, {"loss_bound": vacuum_loss_bound(model, keep)})


def _first_order_job(rng, shape, index, prefix) -> Job:
    slot = index % len(FIRST_ORDER_MODES)
    modes = FIRST_ORDER_MODES[slot]
    terms = FIRST_ORDER_TERMS[slot]
    max_occ = FIRST_ORDER_MAX_OCC[modes]
    model = random_model(rng, modes, 0.4, phases=True)
    keep = tuple(range(modes - 1))
    occs = factored_support(shape, modes, keep, terms, max_occ, force_max=True)
    amps = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    model_path = _write(prefix + "_model.json", model_document(model))
    state_path = _write(prefix + "_state.json", state_document(occs, amps))
    cutoff = str(max_occ + 2)
    base = ["qfi", model_path, "--state", state_path, "--cutoff", cutoff]
    steps = [Step("cli", base), Step("cli", base + ["--keep", ",".join(map(str, keep))])]
    return Job(index, steps, {"loss_bound": vacuum_loss_bound(model, keep)})


def _optimize_job(rng, shape, index, prefix) -> Job:
    slot = index % len(OPTIMIZE_MODES)
    modes = OPTIMIZE_MODES[slot]
    size = OPTIMIZE_SUPPORT[slot]
    use_keep = index % 2 == 0
    keep = tuple(range(modes - 1)) if use_keep else tuple(range(modes))
    model = random_model(rng, modes, 0.4, phases=True)
    while True:
        support = factored_support(shape, modes, keep, size, 4, force_max=False)
        totals = sorted(sum(occ) for occ in support)
        if totals[0] < totals[-1]:
            break
    avg_n = 0.5 * (totals[0] + totals[-1])
    start = projected_start(support, avg_n)
    model_path = _write(prefix + "_model.json", model_document(model))
    support_path = _write(prefix + "_support.json", [list(o) for o in support])
    start_path = _write(prefix + "_start.json", state_document(support, start))
    keep_args = ["--keep", ",".join(map(str, keep))] if use_keep else []
    cutoff = str(max(max(o) for o in support) + 2)
    steps = [
        Step("cli", ["optimize", model_path, "--support", support_path,
                     "--avg-n", repr(avg_n), "--restarts", str(OPTIMIZE_RESTARTS),
                     "--max-iter", str(OPTIMIZE_MAX_ITER)] + keep_args),
        Step("cli", ["qfi", model_path, "--state", start_path, "--cutoff", cutoff]
             + keep_args, timed=False),
    ]
    return Job(index, steps, {})


def projected_start(support: list[tuple[int, ...]], target: float) -> np.ndarray:
    """All-ones amplitudes tilted by exp(t N / 2) so that <N> = target.

    The same constraint projection ``optimize`` applies to its first
    restart, solved here by bisection.
    """
    totals = np.array([float(sum(o)) for o in support])

    def mean(t: float) -> float:
        w = np.exp(t * (totals - totals.max()))
        return float(np.sum(w * totals) / np.sum(w))

    lo, hi = -1.0, 1.0
    while mean(lo) > target:
        lo *= 2.0
    while mean(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean(mid) < target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return np.exp(0.5 * t * (totals - totals.max())).astype(complex)


_BUILDERS = {
    "scan": _scan_job,
    "compare": _compare_job,
    "first-order": _first_order_job,
    "optimize": _optimize_job,
}


# ---------------------------------------------------------------- checks


def check_job(workload: str, job: Job, reply: dict) -> tuple[list[str], dict]:
    """Problems found in one job's answer, and its accuracy diagnostics.

    A problem is any non-zero exit, worker exception, or failed check.
    Diagnostics are ``route_gap`` (the largest first-order versus oracle
    difference) and ``oracle_err`` (the largest reported oracle error).
    """
    problems = []
    for number, result in enumerate(reply["steps"]):
        if result.get("exception"):
            problems.append(f"step {number}: exception {result['exception']}")
        elif result["exit"] != 0:
            problems.append(f"step {number}: exit {result['exit']} {error_class(result)}")
    if problems:
        return problems, {}
    try:
        return _CHECKS[workload](job, reply["steps"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def error_class(result: dict) -> str:
    """The ``error`` field of the JSON object the CLI writes on failure."""
    for line in result.get("stderr", "").splitlines():
        try:
            return str(json.loads(line)["error"])
        except (ValueError, KeyError, TypeError):
            continue
    return "unclassified"


def _check_scan(job, steps):
    rows = list(csv.DictReader(io.StringIO(steps[0]["out"])))
    problems, gap, err = [], 0.0, 0.0
    if len(rows) != SCAN_POINTS:
        problems.append(f"expected {SCAN_POINTS} scan rows, got {len(rows)}")
    for row in rows:
        where = f"(n, m) = ({row['n']}, {row['m']})"
        closed, perturb = float(row["qfi_closed"]), float(row["qfi_perturb"])
        oracle, oracle_err = float(row["qfi_oracle"]), float(row["oracle_err"])
        loss = float(row["tracing_loss"])
        values = (closed, perturb, oracle, oracle_err, loss)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value at {where}")
            continue
        if abs(closed - perturb) > TOL_CLOSED_VS_PERTURB:
            problems.append(f"closed {closed!r} vs perturb {perturb!r} at {where}")
        if abs(perturb - oracle) > max(TOL_PERTURB_VS_ORACLE, 10.0 * oracle_err):
            problems.append(f"perturb {perturb!r} vs oracle {oracle!r} at {where}")
        if loss < job.facts["loss_bound"] - TOL_LOSS_BOUND:
            problems.append(f"loss {loss!r} below vacuum bound at {where}")
        gap, err = max(gap, abs(perturb - oracle)), max(err, oracle_err)
    return problems, {"route_gap": gap, "oracle_err": err}


def _check_compare(job, steps):
    cmp = json.loads(steps[0]["stdout"])
    mixed = steps[1]["api"]
    problems = []
    perturb, oracle, err = cmp["qfi_perturb"], cmp["qfi_oracle"], cmp["oracle_err"]
    if cmp["agree"] is not True:
        problems.append("oracle-compare reports agree = false")
    if abs(perturb - oracle) > max(TOL_PERTURB_VS_ORACLE, 10.0 * err):
        problems.append(f"perturb {perturb!r} vs oracle {oracle!r}")
    oracle_reduced, reduced = mixed["mixed"], mixed["reduced"]
    if abs(oracle_reduced - reduced) > TOL_MIXED_VS_REDUCED:
        problems.append(f"oracle reduced QFI {oracle_reduced!r} vs qfi_reduced {reduced!r}")
    if mixed["loss"] < job.facts["loss_bound"] - TOL_LOSS_BOUND:
        problems.append(f"loss {mixed['loss']!r} below vacuum bound")
    gap = max(abs(perturb - oracle), abs(oracle_reduced - reduced))
    return problems, {"route_gap": gap, "oracle_err": err}


def _check_first_order(job, steps):
    full = json.loads(steps[0]["stdout"])
    part = json.loads(steps[1]["stdout"])
    problems = []
    loss = part["tracing_loss"]
    if not all(math.isfinite(v) for v in (full["qfi"], part["qfi"], loss)):
        return ["non-finite QFI"], {}
    if abs(part["qfi"] + loss - full["qfi"]) > TOL_REDUCED_PLUS_LOSS * max(1.0, full["qfi"]):
        problems.append(f"reduced {part['qfi']!r} + loss {loss!r} != full {full['qfi']!r}")
    if loss < job.facts["loss_bound"] - TOL_LOSS_BOUND:
        problems.append(f"loss {loss!r} below vacuum bound")
    return problems, {}


def _check_optimize(job, steps):
    result = json.loads(steps[0]["stdout"])
    start = json.loads(steps[1]["stdout"])
    problems = []
    if not result["constraint_residual"] <= TOL_CONSTRAINT:
        problems.append(f"constraint residual {result['constraint_residual']!r}")
    if not result["qfi"] >= start["qfi"] - TOL_OPTIMIZE_START * max(1.0, start["qfi"]):
        problems.append(f"optimized QFI {result['qfi']!r} below start {start['qfi']!r}")
    amps = np.array([complex(re, im) for re, im in result["amplitudes"]])
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > TOL_CONSTRAINT:
        problems.append("optimized amplitudes are not normalized")
    return problems, {}


_CHECKS = {
    "scan": _check_scan,
    "compare": _check_compare,
    "first-order": _check_first_order,
    "optimize": _check_optimize,
}
