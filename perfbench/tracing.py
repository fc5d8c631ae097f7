"""Spans around the program's layer boundaries, recorded from outside it.

``install()`` replaces every public function of the traced modules with a
wrapper that records a span, in every module that binds the name, so a
call is seen wherever its caller looks it up (``harness.qfi_fidelity_pure``
and ``cli.qfi_fidelity_pure`` are the same wrapper).  It also wraps
``StateVector.to_dense``/``from_dense``, the ``numpy.linalg.eigh`` boundary
and the scan pool constructor.  Spans stay in memory until ``dump``.

A span is ``(id, parent, job, name, start, end, fields)``.  The parent is
the innermost open span of the same thread; a span opened by a pool thread
with nothing open takes the main thread's innermost span, which is blocked
in the pool.  ``aggregate`` turns spans into per-job layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = ("cli", "bogoliubov", "fock", "perturb", "qfi", "oracle", "harness")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, fields=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(self._ids)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if fields is not None:
                    extra = fields(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self.job, name, start, end, extra))

        return traced

    def event(self, name: str, fields: dict) -> None:
        now = time.perf_counter()
        stack = self._stack() or self._main_stack
        parent = stack[-1] if stack else None
        self.spans.append((next(self._ids), parent, self.job, name, now, now, fields))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _apply_fields(args, result):
    return {"terms_in": len(args[1]), "terms_out": len(result)}


def _eigh_fields(args, result):
    return {"dim": int(args[0].shape[0])}


def _hamiltonian_fields(args, result):
    gen, layout = args[0], args[1]
    return {"dim": int(layout.basis_size),
            "op": hash((gen.h.tobytes(), gen.g.tobytes(), layout))}


FIELDS = {
    "perturb.apply_generator": _apply_fields,
    "oracle.dense_hamiltonian": _hamiltonian_fields,
}


def install() -> Recorder:
    """Wrap the program's layer boundaries; call once, before the first job."""
    import importlib

    import numpy

    package = importlib.import_module("bogofisher")
    modules = {short: importlib.import_module(f"bogofisher.{short}") for short in MODULES}
    recorder = Recorder()

    wrappers = {}
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                name = f"{short}.{attr}"
                wrappers[value] = recorder.wrap(name, value, FIELDS.get(name))
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])

    state_cls = modules["fock"].StateVector
    state_cls.to_dense = recorder.wrap("fock.to_dense", state_cls.to_dense)
    from_dense = state_cls.__dict__["from_dense"].__func__
    state_cls.from_dense = classmethod(recorder.wrap("fock.from_dense", from_dense))

    numpy.linalg.eigh = recorder.wrap("oracle.eigh", numpy.linalg.eigh, _eigh_fields)

    harness = modules["harness"]
    pool_cls = getattr(harness, "ThreadPoolExecutor", None)
    if pool_cls is not None:
        class RecordedPool(pool_cls):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                recorder.event("harness.pool", {"workers": self._max_workers})

        harness.ThreadPoolExecutor = RecordedPool
    return recorder


# ------------------------------------------------------------ aggregation


def load(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list[tuple], jobs: set[int]) -> dict:
    """Per-name totals over the spans of the given jobs.

    Returns ``{name: {"calls", "busy_s", "self_s", "fields": [...]}}`` plus
    per-job structures used by the derived metrics.
    """
    spans = [s for s in spans if s[2] in jobs]
    children = defaultdict(list)
    for sid, parent, _job, _name, start, end, _f in spans:
        if parent is not None:
            children[parent].append((start, end))
    names = {s[0]: (s[1], s[3]) for s in spans}
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fields": []})
    by_job = defaultdict(list)
    for sid, _parent, job, name, start, end, fields in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        if fields is not None:
            entry["fields"].append(fields)
        by_job[job].append((sid, name, fields))
    return {"stats": stats, "by_job": by_job, "names": names}


def has_ancestor(names: dict, sid: int, wanted: str) -> bool:
    node = names[sid][0]
    while node is not None and node in names:
        node, name = names[node]
        if name == wanted:
            return True
    return False
