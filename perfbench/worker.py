"""Long-lived worker interpreter: runs benchmark jobs through the program.

Started by ``run.py`` with the checkout's ``src`` directory.  It reads one
JSON request per line on stdin and answers one JSON line on the protocol
stream (a duplicate of the original stdout; ``sys.stdout`` itself is
captured per CLI call).  Requests:

- ``{"op": "job", "id": i, "steps": [...]}`` runs the steps in order and
  answers with each step's exit code, stdout, stderr and ``--out`` file,
  and the wall time and process CPU time (all threads) of the timed steps.
- ``{"op": "stats"}`` answers with the peak resident set size and the
  library environment.
- ``{"op": "exit"}`` writes the recorded spans (traced workers only) and
  ends the process.

With ``--trace PATH`` the worker wraps the program's public functions
before the first job (see ``tracing.py``) and writes the spans to PATH
when it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr

    from bogofisher import cli  # noqa: F401  (the import is part of set-up)

    recorder = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.install()

    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "exit":
            break
        if op == "stats":
            reply = {"peak_rss_mb": _peak_rss_mb(), "env": _library_env()}
        else:
            reply = _run_job(request, recorder)
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
    if recorder is not None:
        recorder.dump(args.trace)
    return 0


def _run_job(request: dict, recorder) -> dict:
    if recorder is not None:
        recorder.job = request["id"]
    results, wall, cpu = [], 0.0, 0.0
    for step in request["steps"]:
        cpu0, start = _cpu_s(), time.perf_counter()
        result = _run_step(step)
        if step["timed"]:
            wall += time.perf_counter() - start
            cpu += _cpu_s() - cpu0
        results.append(result)
    if recorder is not None:
        recorder.job = None
    return {"id": request["id"], "wall": wall, "cpu": cpu, "rss_mb": _rss_mb(),
            "steps": results}


def _run_step(step: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"exit": None, "stdout": "", "stderr": "", "out": None, "api": None,
              "exception": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if step["kind"] == "cli":
                # A fresh CLI process binds its log handler to its own stderr.
                logging.root.handlers.clear()
                from bogofisher import cli

                result["exit"] = cli.cli_main(step["argv"])
            else:
                result["api"] = _API_STEPS[step["kind"]](**step["api"])
                result["exit"] = 0
    except Exception as exc:  # the job fails; the worker keeps serving
        result["exception"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    result["stdout"], result["stderr"] = out.getvalue(), err.getvalue()
    if step.get("out") and result["exit"] == 0:
        with open(step["out"], "r", encoding="utf-8", newline="") as handle:
            result["out"] = handle.read()
    return result


def _read(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _mixed(model: str, state: str, keep: list[int], cutoff: int) -> dict:
    """Oracle reduced QFI -4 <psi0_k|rho2|psi0_k> against the first-order one.

    ``rho2`` comes from the oracle's finite differences on ``keep``.  The
    job's support varies on ``keep`` over one fixed complement, so the
    reduced state is the pure ``psi0_k``.
    """
    import bogofisher as bf
    from bogofisher.harness import load_state_document

    parsed = bf.load_model(_read(model))
    vector = load_state_document(_read(state), bf.ModeLayout(parsed.mode_count, cutoff))
    subset = bf.ModeSubset.of(keep)
    ders = bf.derivative_states(bf.generator_from_model(parsed), vector, keep=subset)
    complements = {tuple(o for m, o in enumerate(occ) if m not in keep)
                   for occ, _ in vector.items()}
    if len(complements) != 1:
        raise ValueError("the state does not factor over keep and its complement")
    psi0_k = bf.StateVector(bf.ModeLayout(len(keep), cutoff),
                            {tuple(occ[m] for m in keep): c for occ, c in vector.items()})
    report = bf.qfi_reduced(parsed, vector, subset)
    return {"mixed": bf.qfi_mixed_matrix_element(ders.rho2, psi0_k),
            "reduced": report.qfi, "loss": report.tracing_loss}


def _serial_scan(model: str, n: list[int], m: list[int], keep: list[int]) -> dict:
    """The scan job's ``scan_fock`` with one thread and a cold propagator cache."""
    import bogofisher as bf
    from bogofisher import oracle

    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    parsed = bf.load_model(_read(model))
    start = time.perf_counter()
    rows = bf.scan_fock(parsed, 0, n, kprime=1, m_values=m,
                        keep=bf.ModeSubset.of(keep), threads=1)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "csv": bf.rows_to_csv(rows)}


_API_STEPS = {"mixed": _mixed, "serial_scan": _serial_scan}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    """Resident set size now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0**20


def _library_env() -> dict:
    import numpy
    import scipy
    from bogofisher import harness

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "scan_pool_workers": harness.worker_count(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in symbols:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


if __name__ == "__main__":
    sys.exit(main())
