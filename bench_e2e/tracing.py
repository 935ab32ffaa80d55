"""Span tracing for the benchmark's traced run.

The program is never edited: :func:`install` wraps public functions
and methods of ``repro`` from here, records one span per call (name,
start, end, process, thread, parent span, and an optional value such
as "did the pass change anything"), keeps the spans in memory, and
:meth:`Installation.undo` puts the originals back.  Count-only probes (NAIM
loader touches, repository traffic) record ``(name, time, value)``
events instead of spans, so they take no self time from anyone.

Spans recorded in other processes -- the build daemon and the forked
LTRANS workers -- are written to ``<trace_dir>/spans-<pid>.jsonl``
and merged back with :func:`load_dir`.  All processes read the same
system-wide monotonic clock (``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux), so spans from every process can be
placed in one op window.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self, trace_dir: Optional[str] = None) -> None:
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.enabled = True
        #: Each span: [name, start, end, pid, tid, parent-span, value].
        self.spans: List[list] = []
        #: Each count: (name, time, value, pid).
        self.counts: List[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def clear(self) -> None:
        self.spans = []
        self.counts = []

    def after_fork(self) -> None:
        """A forked child starts with no spans of its parent's."""
        self.pid = os.getpid()
        self._local = threading.local()
        self.clear()

    def wrap_span(self, name: str, fn: Callable,
                  value_of: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``value_of(result)`` is
        stored as the span's value."""
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span = [name, _now(), 0.0, recorder.pid, threading.get_ident(),
                    stack[-1] if stack else None, 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
                recorder.spans.append(span)
            if value_of is not None:
                span[6] = value_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_delta(self, fn: Callable,
                   fields: Dict[str, Callable]) -> Callable:
        """A method wrapper recording, per call, the change of each
        counter ``fields[name](self)`` as a count event."""
        recorder = self

        def counted(obj, *args, **kwargs):
            if not recorder.enabled:
                return fn(obj, *args, **kwargs)
            before = [read(obj) for read in fields.values()]
            try:
                return fn(obj, *args, **kwargs)
            finally:
                now = _now()
                for (name, read), old in zip(fields.items(), before):
                    recorder.counts.append(
                        (name, now, read(obj) - old, recorder.pid)
                    )

        counted.__wrapped__ = fn
        return counted

    def export(self) -> Dict[str, list]:
        """Spans and counts as JSON-safe rows (parents as indices)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        spans = [
            [name, start, end, pid, tid,
             index.get(id(parent), -1) if parent is not None else -1, value]
            for name, start, end, pid, tid, parent, value in self.spans
        ]
        return {"spans": spans, "counts": [list(c) for c in self.counts]}

    def flush(self) -> None:
        """Append this process's records to its file, then forget them."""
        if self.trace_dir is None or not (self.spans or self.counts):
            return
        path = os.path.join(self.trace_dir, "spans-%d.jsonl" % os.getpid())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.export()) + "\n")
        self.clear()


# -- What is traced ---------------------------------------------------------------

#: (module, function, span name, value of the result) for module-level
#: functions.  Every module that imported the function by name is
#: rebound too, so ``from ..x import f`` call sites are traced.
FUNCTIONS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.frontend", "compile_source", "frontend",
     lambda module: module.source_lines),
    ("repro.incr.summary", "extract_routine_facts", "hlo.wpa.scan", None),
    ("repro.hlo.thin", "build_thin_callgraph", "hlo.wpa.callgraph", None),
    ("repro.hlo.thin", "thin_publish_interprocedural_facts",
     "hlo.wpa.ipcp", None),
    ("repro.hlo.thin", "thin_plan_clones", "hlo.wpa.clone", None),
    ("repro.hlo.thin", "thin_apply_clones", "hlo.wpa.clone", None),
    ("repro.hlo.thin", "replay_plan", "hlo.replay", None),
    ("repro.llo.lower", "lower_routine", "llo.lower", None),
    ("repro.llo.schedule", "schedule_routine", "llo.schedule", None),
    ("repro.llo.regalloc", "allocate", "llo.regalloc",
     lambda allocation: allocation.spilled_count),
    ("repro.llo.layout", "emit_routine", "llo.emit",
     lambda machine: len(machine.instrs)),
    ("repro.llo.layout", "order_blocks", "llo.emit", None),
    ("repro.linker.link", "check_interfaces", "linker.check", None),
    ("repro.linker.clustering", "cluster_routines", "linker.layout", None),
    ("repro.linker.link", "build_image", "linker.image", None),
    ("repro.naim.compaction", "compact_routine", "naim.encode", None),
    ("repro.naim.compaction", "uncompact_routine", "naim.decode", None),
]

#: Scalar HLO passes: (module, class, pass name); each pass's ``run``
#: returns whether it changed the routine.
PASSES = [
    ("repro.hlo.transforms.simplify", "SimplifyCfg", "simplify"),
    ("repro.hlo.transforms.constprop", "ConstantPropagation", "constprop"),
    ("repro.hlo.transforms.memopt", "MemoryForwarding", "memopt"),
    ("repro.hlo.transforms.licm", "LoopInvariantCodeMotion", "licm"),
    ("repro.hlo.transforms.branch_elim", "BranchElimination", "branch_elim"),
    ("repro.hlo.transforms.dce", "DeadCodeElimination", "dce"),
]

#: (module, class, method, span name, value of the result).
METHODS = [
    ("repro.hlo.transforms.inline", "InlineEngine", "run", "hlo.wpa.inline",
     lambda stats: stats.performed),
    ("repro.ir.callgraph", "CallGraph", "is_recursive", "hlo.is_recursive",
     None),
    ("repro.part.runner", "PartitionRunner", "run", "part.ltrans", None),
    ("repro.part.remote", "RemotePartitionRunner", "run", "part.ltrans",
     None),
    ("repro.incr.state", "IncrementalState", "begin_link",
     "incr.begin_link", None),
    ("repro.incr.state", "IncrementalState", "commit", "incr.commit", None),
]

#: Count-only probes: (module, class, method, {count name: reader}).
COUNTERS = [
    ("repro.naim.loader", "Loader", "touch", {
        "naim.touches": lambda loader: loader.stats.touches,
        "naim.cache_hits": lambda loader: loader.stats.cache_hits,
    }),
    ("repro.naim.loader", "Loader", "_compact_pool", {
        "naim.offloads": lambda loader: loader.stats.offloads,
    }),
    ("repro.naim.repository", "Repository", "store", {
        "naim.repo_bytes_written": lambda repo: repo.bytes_written,
    }),
    ("repro.naim.repository", "Repository", "fetch", {
        "naim.repo_bytes_read": lambda repo: repo.bytes_read,
        "naim.repo_fetches": lambda repo: repo.fetches,
    }),
    ("repro.naim.repository", "Repository", "fetch_many", {
        "naim.repo_bytes_read": lambda repo: repo.bytes_read,
        "naim.repo_fetches": lambda repo: repo.fetches,
    }),
]

#: Installed recorders, for the fork hook (registered once per process).
_ACTIVE: List[Recorder] = []
_FORK_HOOKED: List[bool] = []


def _on_fork_child() -> None:
    for recorder in _ACTIVE:
        recorder.after_fork()


def _passed_changed(changed) -> int:
    return 1 if changed else 0


class Installation:
    """The patches one :func:`install` made, undone by :meth:`undo`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        if self.recorder in _ACTIVE:
            _ACTIVE.remove(self.recorder)


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(recorder: Recorder) -> Installation:
    """Wrap every traced function and method; returns the undo handle.

    Imports every ``repro`` module the wrappers refer to first, so the
    rebinding pass sees each ``from x import f`` alias that exists.
    """
    for module_name in ("repro.driver.compiler", "repro.driver.build",
                        "repro.hlo.driver", "repro.part.procexec",
                        "repro.part.wire", "repro.serve.state"):
        importlib.import_module(module_name)
    done = Installation(recorder)
    modules = _repro_modules()
    for module_name, attr, span_name, value_of in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = recorder.wrap_span(span_name, original, value_of)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    done.set(module, key, wrapped)
    for module_name, class_name, pass_name in PASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        done.set(cls, "run", recorder.wrap_span(
            "hlo." + pass_name, cls.__dict__["run"], _passed_changed))
    for module_name, class_name, method, span_name, value_of in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        done.set(cls, method, recorder.wrap_span(
            span_name, cls.__dict__[method], value_of))
    for module_name, class_name, method, fields in COUNTERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        done.set(cls, method, recorder.wrap_delta(cls.__dict__[method],
                                                  fields))
    # LTRANS workers are forked from this process: they inherit the
    # wrappers, start with an empty recorder, and write their records
    # out after every partition job.
    procexec = importlib.import_module("repro.part.procexec")
    job = procexec.run_partition_job

    def traced_job(payload):
        try:
            return job(payload)
        finally:
            if os.getpid() != recorder_pid:
                recorder.flush()

    recorder_pid = os.getpid()
    done.set(procexec, "run_partition_job", traced_job)
    _ACTIVE.append(recorder)
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_on_fork_child)
        _FORK_HOOKED.append(True)
    return done


def load_dir(trace_dir: str) -> Dict[str, list]:
    """Merge every ``spans-*.jsonl`` file under ``trace_dir``."""
    merged: Dict[str, list] = {"spans": [], "counts": []}
    if not os.path.isdir(trace_dir):
        return merged
    for filename in sorted(os.listdir(trace_dir)):
        if not (filename.startswith("spans-")
                and filename.endswith(".jsonl")):
            continue
        with open(os.path.join(trace_dir, filename), encoding="utf-8") as fh:
            for line in fh:
                merge_into(merged, json.loads(line))
    return merged


def merge_into(merged: Dict[str, list], records: Dict[str, list]) -> None:
    """Append exported ``records`` to ``merged``, re-basing parents."""
    offset = len(merged["spans"])
    for row in records["spans"]:
        row = list(row)
        if row[5] >= 0:
            row[5] += offset
        merged["spans"].append(row)
    merged["counts"].extend(records["counts"])


# -- Arithmetic over spans ----------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` are exported rows (parent as an index, -1 for a root).
    Children nest inside their parent on one thread, so what remains
    is the time the span's own layer spent.
    """
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        parent = row[5]
        if parent >= 0:
            own[parent] -= row[2] - row[1]
    return own


def covered_seconds(intervals: Iterable[Tuple[float, float]],
                    start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def largest_gap(spans: List[list], start: float,
                end: float) -> Tuple[str, float]:
    """The largest stretch of [start, end] that no span of any thread
    or process covers, summed by the pair of spans around it; returns
    ("after X before Y", seconds)."""
    rows = sorted((row for row in spans
                   if row[1] >= start and row[2] <= end),
                  key=lambda row: row[1])
    gaps: Dict[str, float] = {}
    previous, cursor = "op start", start
    for row in rows:
        if row[1] > cursor:
            key = "after %s before %s" % (previous, row[0])
            gaps[key] = gaps.get(key, 0.0) + row[1] - cursor
        if row[2] > cursor:
            cursor, previous = row[2], row[0]
    if end > cursor:
        key = "after %s before op end" % previous
        gaps[key] = gaps.get(key, 0.0) + end - cursor
    if not gaps:
        return "-", 0.0
    return max(gaps.items(), key=lambda item: item[1])
