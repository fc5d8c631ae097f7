"""bogofisher benchmark: seeded CLI jobs in a closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Each run starts a long-lived worker interpreter (``worker.py``) and sends
it jobs one at a time through ``bogofisher.cli.cli_main``; the next job
starts when the previous one has returned.  Every job gets a freshly
seeded model, so the program's in-process propagator cache never serves
a later job, as for separate CLI processes.  Neither ``BOGOFISHER_THREADS``
nor any BLAS thread variable is set, so the scan pool and BLAS run at the
defaults users get; both are recorded.  Every answer is checked
(``jobs.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends each job
to an untraced and then to a traced worker, checks that both give the
same output bytes, and prints the per-layer metrics (``tracing.py``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the environment and any failure.  A full record is
written to ``.perfbench_out/``.  See ``NOTES.md`` for the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_LAUNCHES = 3
TAIL_BEYOND = 10
SERIAL_SCAN_JOBS = 5
IMPORT_SAMPLES = 3
WORKER_EXIT_TIMEOUT_S = 60


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker interpreter and its request/answer pipe."""

    def __init__(self, root: str, trace_path: str | None = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--src", os.path.join(root, "src")]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=root)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def job(self, job: jobs.Job) -> dict:
        return self.request({"op": "job", **job.to_wire()})

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


class Run:
    """Outcome of one phase: replies, check results and timings per job."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.cpu: list[float] = []
        self.rss: list[float] = []
        self.digests: dict[int, str] = {}
        self.failures: list[tuple[int, str]] = []
        self.diagnostics: list[dict] = []
        self.replies: dict[int, dict] = {}
        self.wall = 0.0

    def record(self, workload: str, job: jobs.Job, reply: dict) -> None:
        problems, diagnostics = jobs.check_job(workload, job, reply)
        self.failures += [(job.index, p) for p in problems]
        self.diagnostics.append(diagnostics)
        self.times.append(reply["wall"])
        self.cpu.append(reply["cpu"])
        self.rss.append(reply["rss_mb"])
        self.digests[job.index] = digest(reply)
        self.replies[job.index] = reply


def digest(reply: dict) -> str:
    """SHA-256 over every step's stdout and ``--out`` file (the CSV)."""
    h = hashlib.sha256()
    for step in reply["steps"]:
        h.update((step["stdout"] or "").encode())
        h.update(b"\0")
        h.update((step["out"] or "").encode())
        h.update(b"\0")
    return h.hexdigest()


def launch(root: str, workload: str, workdir: str, trace_path: str | None = None):
    """Start a worker and answer the warm-up job.

    Returns the worker, the seconds from launch to the answer, and the
    problems the checks found in the warm-up answer.
    """
    start = time.perf_counter()
    worker = Worker(root, trace_path)
    warm = jobs.warmup_job(workload, workdir)
    reply = worker.job(warm)
    elapsed = time.perf_counter() - start
    problems, _ = jobs.check_job(workload, warm, reply)
    return worker, elapsed, problems


def timed_loop(workers: list[Worker], workload: str, seed: int, workdir: str,
               seconds: float) -> list[Run]:
    """Closed loop for ``seconds`` of wall time; one Run per worker.

    Each job goes to every worker in turn before the next job is made, so
    an untraced and a traced worker see the same jobs under the same
    machine conditions.
    """
    runs = [Run() for _ in workers]
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        job = jobs.make_job(workload, seed, index, workdir)
        for worker, run in zip(workers, runs):
            run.record(workload, job, worker.job(job))
        index += 1
    for run in runs:
        run.wall = time.perf_counter() - start
    return runs


def tail(times: list[float]) -> tuple[float, float]:
    """The job time with TAIL_BEYOND jobs slower than it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_breakdown(root: str) -> dict:
    """Median cumulative import times from ``python -X importtime``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    samples = {"bogofisher": [], "scipy.optimize": []}
    pattern = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s?( *)(\S+)")
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bogofisher"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise WorkerError(f"import failed: {done.stderr[-500:]}")
        found = {name: 0.0 for name in samples}
        for line in done.stderr.splitlines():
            match = pattern.match(line)
            if match and match.group(3) in found:
                found[match.group(3)] = int(match.group(1)) / 1e6
        for name, value in found.items():
            samples[name].append(value)
    return {name: statistics.median(values) for name, values in samples.items()}


def end_to_end(run: Run, setups: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    n = len(run.times)
    tail_s, tail_pct = tail(run.times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s_p50": (statistics.median(run.times), "s"),
        "job_s_tail": (tail_s, "s"),
        "jobs_per_s": (n / run.wall, "1/s"),
        "cpu_s_per_job": (sum(run.cpu) / n, "s"),
        "rss_mb_p50": (statistics.median(run.rss), "MB"),
    }
    notes = {
        "peak_rss_mb": peak_rss_mb,
        "jobs": n,
        "job_s_tail_percentile": round(tail_pct, 1),
        "setup_samples": setups,
    }
    return metrics, notes


def per_layer(untraced: Run, traced: Run, spans: list[tuple], serial: list[float],
              imports: dict) -> dict:
    job_ids = set(traced.digests)
    n = len(job_ids)
    agg = tracing.aggregate(spans, job_ids)
    stats = agg["stats"]

    def stat(name: str, key: str) -> float:
        return stats[name][key] / n if name in stats else 0.0

    metrics = {
        "import.bogofisher_s": (imports["bogofisher"], "s"),
        "import.scipy_optimize_s": (imports["scipy.optimize"], "s"),
        "trace.overhead_s": (statistics.median(traced.times)
                             - statistics.median(untraced.times), "s"),
    }
    for name, keys in LAYER_SPANS:
        for key in keys:
            unit = "count/job" if key == "calls" else "s/job"
            metrics[f"{name}.{key}"] = (stat(name, key), unit)

    applied = stats["perturb.apply_generator"]["fields"] if "perturb.apply_generator" in stats else []
    for key in ("terms_in", "terms_out"):
        value = statistics.fmean(f[key] for f in applied) if applied else 0.0
        metrics[f"perturb.apply_generator.{key}"] = (value, "terms/call")

    eigh_fields = stats["oracle.eigh"]["fields"] if "oracle.eigh" in stats else []
    metrics["oracle.eigh.dim_max"] = (max((f["dim"] for f in eigh_fields), default=0), "dim")
    operators = sized = 0
    computed = 0.0
    for entries in agg["by_job"].values():
        ops = {f["op"]: f["dim"] for _, name, f in entries if name == "oracle.dense_hamiltonian"}
        dims = set(ops.values())
        operators += len(ops)
        for _, name, f in entries:
            if name == "oracle.eigh" and f["dim"] in dims:
                sized += 1
            if name in ("oracle.eigh", "oracle.dense_hamiltonian"):
                computed += 16.0 * f["dim"] ** 2
    metrics["oracle.eigh.per_operator"] = (sized / operators if operators else 0.0, "ratio")
    metrics["oracle.dense_bytes_computed"] = (computed / n, "B/job")

    pools = [f["workers"] for f in stats["harness.pool"]["fields"]] if "harness.pool" in stats else []
    metrics["harness.pool_workers"] = (max(pools, default=0), "count")
    metrics["harness.scan_fock.serial_s"] = (
        statistics.median(serial) if serial else 0.0, "s/job")
    objective = sum(1 for entries in agg["by_job"].values() for sid, name, _ in entries
                    if name == "perturb.transform_first_order"
                    and tracing.has_ancestor(agg["names"], sid, "harness.optimize_state"))
    metrics["harness.optimize_state.objective_calls"] = (objective / n, "count/job")

    diagnostics = traced.diagnostics + untraced.diagnostics
    metrics["check.route_gap_max"] = (
        max((d.get("route_gap", 0.0) for d in diagnostics), default=0.0), "abs")
    metrics["check.oracle_err_max"] = (
        max((d.get("oracle_err", 0.0) for d in diagnostics), default=0.0), "abs")
    return metrics


# Span names and the aggregates reported for each.
LAYER_SPANS = (
    ("cli.cli_main", ("self_s",)),
    ("bogoliubov.parse_model", ("busy_s",)),
    ("bogoliubov.validate", ("calls", "busy_s")),
    ("perturb.build_generator", ("calls", "busy_s")),
    ("perturb.transform_first_order", ("calls", "busy_s", "self_s")),
    ("perturb.apply_generator", ("busy_s",)),
    ("qfi.qfi_pure", ("busy_s",)),
    ("qfi.qfi_reduced", ("busy_s",)),
    ("qfi.tracing_loss", ("busy_s",)),
    ("qfi.qfi_fock_closed", ("busy_s",)),
    ("qfi.qfi_two_mode_closed", ("busy_s",)),
    ("fock.to_dense", ("busy_s",)),
    ("fock.from_dense", ("busy_s",)),
    ("oracle.dense_hamiltonian", ("calls", "busy_s")),
    ("oracle.eigh", ("calls", "busy_s")),
    ("oracle.qfi_fidelity_pure", ("calls", "busy_s", "self_s")),
    ("oracle.derivative_states", ("busy_s", "self_s")),
    ("harness.scan_fock", ("busy_s", "self_s")),
    ("harness.rows_to_csv", ("busy_s",)),
    ("harness.optimize_state", ("busy_s", "self_s")),
)


def serial_baseline(worker: Worker, run: Run, workload: str, seed: int,
                    workdir: str) -> list[float]:
    """``scan_fock(threads=1)`` on the first scan jobs; CSV must match the CLI's."""
    if workload != "scan":
        return []
    seconds = []
    for index in range(min(SERIAL_SCAN_JOBS, len(run.times))):
        job = jobs.make_job(workload, seed, index, workdir)
        step = jobs.Step("serial_scan", api={
            "model": job.facts["model_path"], "n": jobs.parse_range(jobs.SCAN_N),
            "m": jobs.parse_range(jobs.SCAN_M), "keep": list(jobs.SCAN_KEEP)})
        reply = worker.job(jobs.Job(index, [step], {}))
        result = reply["steps"][0]
        if result["exception"]:
            run.failures.append((index, f"serial scan: {result['exception']}"))
            continue
        if result["api"]["csv"] != run.replies[index]["steps"][0]["out"]:
            run.failures.append((index, "serial scan CSV differs from the pooled scan"))
        seconds.append(result["api"]["seconds"])
    return seconds


def repeat_check(worker: Worker, run: Run, workload: str, seed: int, workdir: str) -> None:
    """One repeated scan job must give a byte-identical CSV."""
    if workload != "scan" or not run.times:
        return
    again = worker.job(jobs.make_job(workload, seed, 0, workdir))
    if again["steps"][0]["out"] != run.replies[0]["steps"][0]["out"]:
        run.failures.append((0, "repeated scan CSV is not byte-identical"))


def environment(root: str, args, library: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        **library,
        "BOGOFISHER_THREADS": os.environ.get("BOGOFISHER_THREADS", "unset"),
        "blas_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bogofisher", "__init__.py")):
        print("error: run from the root of a bogofisher checkout (src/bogofisher missing)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workers: list[Worker] = []
    try:
        return measure(args, root, out_dir, tag, workdir, workers)
    finally:
        for worker in workers:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: str, out_dir: str, tag: str, workdir: str,
            workers: list[Worker]) -> int:
    setups, warm_problems = [], []
    for launch_number in range(SETUP_LAUNCHES):
        worker, elapsed, problems = launch(root, args.workload, workdir)
        workers.append(worker)
        setups.append(elapsed)
        warm_problems = problems
        if launch_number < SETUP_LAUNCHES - 1:
            workers.pop().close()

    if args.trace:
        trace_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
        traced_worker, _, _ = launch(root, args.workload, workdir, trace_path)
        workers.append(traced_worker)
        untraced, traced = timed_loop([worker, traced_worker], args.workload, args.seed,
                                      workdir, args.seconds)
        # Closing the traced worker writes its spans.
        workers.pop().close()
    else:
        (untraced,) = timed_loop([worker], args.workload, args.seed, workdir, args.seconds)
    stats = worker.request({"op": "stats"})
    repeat_check(worker, untraced, args.workload, args.seed, workdir)
    e2e, notes = end_to_end(untraced, setups, stats["peak_rss_mb"])
    env = environment(root, args, stats["env"])
    env["jobs_per_run"] = len(untraced.times)

    if args.trace:
        serial = serial_baseline(worker, untraced, args.workload, args.seed, workdir)
        untraced.failures += [(i, f"traced: {p}") for i, p in traced.failures]
        for index, value in untraced.digests.items():
            if traced.digests.get(index) != value:
                untraced.failures.append((index, "traced output digest differs from untraced"))
        metrics = per_layer(untraced, traced, tracing.load(trace_path), serial,
                            import_breakdown(root))
        notes["traced_job_s_p50"] = statistics.median(traced.times)
        notes["untraced_job_s_p50"] = e2e["job_s_p50"][0]
        notes["spans_file"] = os.path.relpath(trace_path, root)
    else:
        metrics = e2e

    attempted = len(untraced.times)
    failed = len({index for index, _ in untraced.failures})
    notes["fail_ratio"] = failed / attempted
    failures = [f"warm-up job: {problem}" for problem in warm_problems]
    failures += [f"job {index}: {problem}" for index, problem in untraced.failures]
    report(args, env, e2e, notes, metrics, failures)
    record = {"environment": env, "end_to_end": {} if args.trace else e2e, "notes": notes,
              "metrics": metrics, "failures": failures,
              "job_s": untraced.times, "job_cpu_s": untraced.cpu}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(args, env: dict, e2e: dict, notes: dict, metrics: dict, failures: list) -> None:
    print(f"bogofisher benchmark: workload {args.workload}, seed {args.seed}, "
          f"{notes['jobs']} jobs, closed loop, 1 client")
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"untraced reference, alternated job by job with the traced worker: "
              f"job_s_p50 = {notes['untraced_job_s_p50']:.6g} s; traced "
              f"{notes['traced_job_s_p50']:.6g} s ({notes['jobs']} jobs each)")
    else:
        print("end-to-end (untraced):")
    for name, (value, unit) in ({} if args.trace else e2e).items():
        extra = ""
        if name == "job_s_p50":
            extra = f"  (median of {notes['jobs']} jobs)"
        if name == "job_s_tail":
            extra = f"  (p{notes['job_s_tail_percentile']:g}: {TAIL_BEYOND} jobs slower)"
        if name == "setup_s":
            extra = f"  (median of {SETUP_LAUNCHES} launches)"
        if name == "rss_mb_p50":
            extra = "  (worker resident set after each job, median)"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    print(f"  peak_rss_mb = {notes['peak_rss_mb']:.6g} MB  (worker ru_maxrss; not bounded)")
    print(f"  fail_ratio = {notes['fail_ratio']:.6g} ratio  (failed jobs / attempted)")
    if args.trace:
        print(f"per-layer (traced; tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.6g} s on job_s_p50):")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
