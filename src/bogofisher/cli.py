"""Command-line interface.

Subcommands: validate, qfi, scan, named, optimize, oracle-compare.
Exit codes: 0 success, 1 usage error, 2 validation failure, 3
numerical-budget failure or out of memory.  Errors are reported as one
JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from typing import Any, Sequence

from . import harness
from .bogoliubov import load_model, parse_model, validate
from .errors import (
    BogofisherError,
    BudgetError,
    ModelFormatError,
    NumericalBreakdownError,
    SupportError,
    UnitarityError,
    UsageError,
)
from .fock import ModeSubset, average_particle_number
from .perturb import transform_first_order
from .qfi import DEFAULT_THETA, qfi_pure, qfi_pure_report, qfi_reduced, vacuum_qfi

_EXIT_USAGE = 1
_EXIT_VALIDATION = 2
_EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="bogofisher", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model document")
    p_validate.add_argument("model", help="path to the model JSON document")

    p_qfi = sub.add_parser("qfi", help="QFI of a state under a model")
    p_qfi.add_argument("model")
    p_qfi.add_argument("--state", required=True, help="state JSON document")
    p_qfi.add_argument("--keep", type=_parse_modes, default=None,
                       help="comma-separated accessible mode indices")
    p_qfi.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_qfi.add_argument("--nu", type=int, default=1,
                       help="repetition count for the Cramer-Rao bound")
    p_qfi.add_argument("--cutoff", type=int, default=None)

    p_scan = sub.add_parser("scan", help="QFI scan over Fock occupations")
    p_scan.add_argument("model")
    p_scan.add_argument("--n", required=True, type=_parse_range,
                        help="occupation range, e.g. 0..8 or 0,2,4")
    p_scan.add_argument("--m", type=_parse_range, default=None,
                        help="second-mode range (requires --pair-with)")
    p_scan.add_argument("--k", type=int, default=0, help="scanned mode index")
    p_scan.add_argument("--pair-with", type=int, default=None,
                        help="second mode index for two-mode scans")
    p_scan.add_argument("--keep", type=_parse_modes, default=None)
    p_scan.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_scan.add_argument("--dtheta", type=float, default=1e-3)
    p_scan.add_argument("--cutoff", type=int, default=None)
    p_scan.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_scan.add_argument("--fit", action="store_true",
                        help="also print the fitted scaling exponent (needs --out)")
    p_scan.add_argument("--keep-vacuum-term", action="store_true",
                        help="fit without subtracting the vacuum QFI")

    p_named = sub.add_parser("named", help="evaluate the example two-mode states")
    p_named.add_argument("model")
    p_named.add_argument("--n", type=int, required=True)
    p_named.add_argument("--k", type=int, default=0)
    p_named.add_argument("--kprime", type=int, default=1)
    p_named.add_argument("--keep", type=_parse_modes, default=None)
    p_named.add_argument("--theta", type=float, default=DEFAULT_THETA)

    p_opt = sub.add_parser("optimize", help="maximize QFI over a Fock support")
    p_opt.add_argument("model")
    p_opt.add_argument("--support", required=True, help="support JSON document")
    p_opt.add_argument("--avg-n", type=float, required=True,
                       help="target mean total occupation")
    p_opt.add_argument("--keep", type=_parse_modes, default=None)
    p_opt.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p_opt.add_argument("--restarts", type=int, default=harness.DEFAULT_RESTARTS)
    p_opt.add_argument("--max-iter", type=int, default=harness.DEFAULT_MAX_ITER)

    p_cmp = sub.add_parser("oracle-compare",
                           help="compare the first-order route against the exact propagator")
    p_cmp.add_argument("model")
    p_cmp.add_argument("--state", required=True)
    p_cmp.add_argument("--dtheta", type=float, default=1e-3)
    p_cmp.add_argument("--cutoff", type=int, default=None)
    return parser


def _parse_modes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"bad mode list {text!r}") from exc


def _parse_range(text: str) -> Sequence[int]:
    """``lo..hi`` as a ``range`` (never listed here), or a comma-separated list."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc


def _keep_subset(indices: tuple[int, ...] | None) -> ModeSubset | None:
    if indices is None:
        return None
    try:
        return ModeSubset.of(indices)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(payload: dict[str, Any]) -> None:
    """Write one strict JSON object; a NaN or Inf raises before anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _finite_or_null(value: float) -> float | None:
    """Strict JSON has no NaN or Inf; such a value is written as null."""
    return value if math.isfinite(value) else None


def _cmd_validate(args) -> int:
    model = parse_model(_read_json(args.model))
    report = validate(model)
    _emit(
        {
            "passed": report.passed,
            "worst_residuals": {
                k: _finite_or_null(report.worst[k]) for k in sorted(report.worst)
            },
            "violations": [
                {
                    "constraint": v.constraint,
                    "indices": list(v.indices),
                    "residual": _finite_or_null(v.residual),
                }
                for v in report.violations
            ],
        }
    )
    return 0 if report.passed else _EXIT_VALIDATION


def _cmd_qfi(args) -> int:
    model = load_model(_read_json(args.model))
    state = harness._load_state(_read_json(args.state), model.mode_count, args.cutoff)
    keep = _keep_subset(args.keep)
    if keep is None:
        report = qfi_pure_report(transform_first_order(model, state), theta=args.theta)
    else:
        report = qfi_reduced(model, state, keep, theta=args.theta)
    payload: dict[str, Any] = {
        "qfi": report.qfi,
        "breakdown": {name: value for name, value in report.breakdown},
        "theta": report.theta,
        "validity_ratio": report.validity_ratio,
        "validity_ok": report.validity_ok,
        "cramer_rao": {
            "nu": args.nu,
            # inf at zero QFI: written as null.
            "delta_theta_bound": _finite_or_null(report.cramer_rao(args.nu)),
        },
        "average_n": average_particle_number(state),
        "cutoff": state.layout.cutoff,
    }
    if report.tracing_loss is not None:
        payload["tracing_loss"] = report.tracing_loss
    _emit(payload)
    return 0


def _cmd_scan(args) -> int:
    model = load_model(_read_json(args.model))
    if args.m is not None and args.pair_with is None:
        raise UsageError("--m requires --pair-with")
    if args.fit and args.out is None:
        raise UsageError("--fit requires --out (keeps the CSV stream clean)")
    keep = _keep_subset(args.keep)
    rows = harness.scan_fock(
        model,
        args.k,
        args.n,
        kprime=args.pair_with,
        m_values=args.m,
        keep=keep,
        theta=args.theta,
        dtheta=args.dtheta,
        cutoff=args.cutoff,
    )
    csv_text = harness.rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(csv_text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    if args.fit:
        nbar = [row.n + (row.m or 0) for row in rows]
        values = [row.qfi_perturb for row in rows]
        vacuum = 0.0 if args.keep_vacuum_term else vacuum_qfi(model)
        exponent = harness.fit_scaling(nbar, values, vacuum_term=vacuum)
        _emit({"exponent": exponent, "vacuum_term_subtracted": not args.keep_vacuum_term})
    return 0


def _cmd_named(args) -> int:
    model = load_model(_read_json(args.model))
    keep = _keep_subset(args.keep)
    reports = harness.eval_named_states(
        model, args.n, k=args.k, kprime=args.kprime, keep=keep, theta=args.theta
    )
    payload = {
        name: {
            "qfi": rep.qfi,
            "projection_penalty": rep.penalty,
            "average_n": rep.average_n,
            **({"tracing_loss": rep.tracing_loss} if rep.tracing_loss is not None else {}),
        }
        for name, rep in reports.items()
    }
    _emit(payload)
    return 0


def _cmd_optimize(args) -> int:
    model = load_model(_read_json(args.model))
    support = harness.load_support_document(_read_json(args.support), model.mode_count)
    keep = _keep_subset(args.keep)
    result = harness.optimize_state(
        model,
        support,
        args.avg_n,
        keep=keep,
        seed=args.seed,
        restarts=args.restarts,
        max_iter=args.max_iter,
    )
    _emit(
        {
            "support": [list(occ) for occ in result.support],
            "amplitudes": [[float(c.real), float(c.imag)] for c in result.amplitudes],
            "qfi": result.qfi,
            "constraint_residual": result.constraint_residual,
            "stationarity_residual": result.stationarity_residual,
            "restarts": [
                {"restart": log.restart, "iterations": log.iterations, "score": log.score}
                for log in result.restarts
            ],
        }
    )
    return 0


def _cmd_oracle_compare(args) -> int:
    from .oracle import derivative_states, generator_from_model, qfi_fidelity_pure

    model = load_model(_read_json(args.model))
    state = harness._load_state(_read_json(args.state), model.mode_count, args.cutoff)
    generator = generator_from_model(model)
    pair = transform_first_order(model, state)
    perturb_value = qfi_pure(pair)
    estimate = qfi_fidelity_pure(generator, state, dtheta=args.dtheta)
    numeric = derivative_states(generator, state, keep=None)
    # Both sides are K psi: the oracle differentiates exp(theta K) and the
    # first-order route leaves out the free evolution U0.
    diff = pair.psi1.add(numeric.psi1.scaled(-1.0))
    psi1_distance = diff.norm()
    tolerance = max(1e-6, 10.0 * estimate.error)
    # The error grows as 64 eps / dtheta^2 at small steps, and the tolerance
    # with it: an estimate that is mostly round-off agrees with nothing.
    resolved = estimate.error <= 1e-3 * max(1.0, abs(perturb_value))
    _emit(
        {
            "qfi_perturb": perturb_value,
            "qfi_oracle": estimate.value,
            "oracle_err": estimate.error,
            "psi1_distance": psi1_distance,
            "agree": bool(
                resolved
                and abs(perturb_value - estimate.value) <= tolerance
                and psi1_distance < 1e-6
            ),
            "cutoff": state.layout.cutoff,
        }
    )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "qfi": _cmd_qfi,
    "scan": _cmd_scan,
    "named": _cmd_named,
    "optimize": _cmd_optimize,
    "oracle-compare": _cmd_oracle_compare,
}


def cli_main(argv: Sequence[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    import warnings

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    try:
        with warnings.catch_warnings():
            # numpy warns when a float overflows or turns NaN: stop there.
            warnings.simplefilter("error", RuntimeWarning)
            args = _build_parser().parse_args(list(argv))
            return _COMMANDS[args.command](args)
    except (UsageError, SupportError, ValueError) as exc:
        _emit_error(exc)
        return _EXIT_USAGE
    except (ModelFormatError, UnitarityError) as exc:
        _emit_error(exc)
        return _EXIT_VALIDATION
    except BudgetError as exc:
        _emit_error(exc)
        return _EXIT_BUDGET
    except (OverflowError, RuntimeWarning) as exc:
        _emit_error(NumericalBreakdownError(f"{exc}; numerical breakdown"))
        return _EXIT_BUDGET
    except MemoryError as exc:
        # numpy's message names the allocation that failed.
        _emit_error(BudgetError(f"out of memory: {str(exc) or 'allocation failed'}"))
        return _EXIT_BUDGET
    except BogofisherError as exc:  # pragma: no cover - safety net
        _emit_error(exc)
        return _EXIT_USAGE


def _emit_error(exc: Exception) -> None:
    json.dump(
        {"error": type(exc).__name__, "message": str(exc)},
        sys.stderr,
        sort_keys=True,
    )
    sys.stderr.write("\n")


def main() -> None:
    """Console-script entry point."""
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
