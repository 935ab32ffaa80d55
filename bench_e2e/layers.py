"""Metric names, units and the per-op arithmetic of the traced run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names
``BENCHMARK.json`` lists; :func:`op_layer_metrics` turns one op's
spans and counts into the per-layer values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from tracing import covered_seconds

#: (name, unit, better) of every end-to-end metric (untraced runs).
END_TO_END: List[Tuple[str, str, str]] = [
    ("build_s.p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("naim_peak_mb", "MB", "lower"),
    ("vm_cycles_per_step", "cycles/step", "lower"),
    ("code_instrs", "count", "lower"),
]

SCALAR_PASSES = ("simplify", "constprop", "memopt", "licm", "branch_elim",
                 "dce")

#: Span name -> metric name for layers reported as summed self time.
SELF_TIME = {
    "frontend": "frontend.s",
    "hlo.wpa.scan": "hlo.wpa.scan_s",
    "hlo.wpa.callgraph": "hlo.wpa.callgraph_s",
    "hlo.wpa.ipcp": "hlo.wpa.ipcp_s",
    "hlo.wpa.clone": "hlo.wpa.clone_s",
    "hlo.wpa.inline": "hlo.wpa.inline_s",
    "hlo.replay": "hlo.replay_s",
    "hlo.is_recursive": "hlo.is_recursive_s",
    "llo.lower": "llo.lower_s",
    "llo.schedule": "llo.schedule_s",
    "llo.regalloc": "llo.regalloc_s",
    "llo.emit": "llo.emit_s",
    "linker.check": "linker.check_s",
    "linker.layout": "linker.layout_s",
    "linker.image": "linker.image_s",
    "naim.encode": "naim.encode_s",
    "naim.decode": "naim.decode_s",
    "part.ltrans": "part.ltrans_s",
    "incr.begin_link": "incr.begin_link_s",
    "incr.commit": "incr.commit_s",
}
for _pass in SCALAR_PASSES:
    SELF_TIME["hlo." + _pass] = "hlo.%s_s" % _pass

#: (name, unit, better) of every per-layer metric (traced runs).
PER_LAYER: List[Tuple[str, str, str]] = (
    [(metric, "s", "lower") for metric in SELF_TIME.values()]
    + [
        ("frontend.lines_per_s", "lines/s", "higher"),
        ("hlo.is_recursive.calls", "count", "lower"),
        ("hlo.inline.sites", "count", "higher"),
    ]
    + [("hlo.%s.runs" % p, "count", "lower") for p in SCALAR_PASSES]
    + [("hlo.%s.changed_ratio" % p, "ratio", "higher")
       for p in SCALAR_PASSES]
    + [
        ("llo.routines", "count", "lower"),
        ("llo.instrs", "count", "lower"),
        ("llo.spilled", "count", "lower"),
        ("naim.decode_calls", "count", "lower"),
        ("naim.repo_bytes_written", "bytes", "lower"),
        ("naim.repo_bytes_read", "bytes", "lower"),
        ("naim.repo_fetches", "count", "lower"),
        ("naim.loader_hit_ratio", "ratio", "higher"),
        ("naim.offloads", "count", "lower"),
        ("part.spawn_s", "s", "lower"),
        ("part.blob_bytes", "bytes", "lower"),
        ("part.partitions", "count", "lower"),
        ("part.requeues", "count", "lower"),
        ("incr.reoptimized_modules", "count", "lower"),
        ("incr.reuse_ratio", "ratio", "higher"),
        ("serve.overhead_s", "s", "lower"),
        ("driver.unattributed_s", "s", "lower"),
        ("driver.unattributed_share", "ratio", "lower"),
        ("trace.build_s.p50", "s", "lower"),
        ("trace.untraced_build_s.p50", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def is_timing(name: str) -> bool:
    """Timings are reported as medians over ops; everything else is a
    deterministic count taken from the first traced op."""
    return UNITS[name] in ("s", "lines/s") or name.startswith(
        ("driver.", "trace."))


def is_exact_count(name: str) -> bool:
    """Counts two traced runs of one seed must reproduce exactly."""
    return name.endswith((".runs", ".calls", ".changed_ratio")) or (
        name == "llo.spilled")


def op_layer_metrics(op, spans: List[list], own: List[float],
                     counts: List[list]) -> Dict[str, float]:
    """Per-layer values of one op from the spans inside its window.

    ``own`` holds each span's self time (:func:`tracing.self_times`).
    ``op.info`` supplies what only the client sees: LTRANS statistics,
    incremental reuse, and the daemon's own build seconds.
    """
    lo, hi = op.start, op.end
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    values: Dict[str, float] = defaultdict(float)
    intervals = []
    for index, row in enumerate(spans):
        if row[1] >= lo and row[2] <= hi:
            seconds[row[0]] += own[index]
            calls[row[0]] += 1
            values[row[0]] += row[6]
            intervals.append((row[1], row[2]))
    counted: Dict[str, float] = defaultdict(float)
    for name, stamp, value, _pid in counts:
        if lo <= stamp <= hi:
            counted[name] += value

    out: Dict[str, float] = {}
    for span_name, metric in SELF_TIME.items():
        out[metric] = seconds[span_name]
    out["frontend.lines_per_s"] = (
        values["frontend"] / seconds["frontend"]
        if seconds["frontend"] else 0.0)
    out["hlo.is_recursive.calls"] = calls["hlo.is_recursive"]
    out["hlo.inline.sites"] = values["hlo.wpa.inline"]
    for p in SCALAR_PASSES:
        runs = calls["hlo." + p]
        out["hlo.%s.runs" % p] = runs
        out["hlo.%s.changed_ratio" % p] = (
            values["hlo." + p] / runs if runs else 0.0)
    out["llo.routines"] = calls["llo.lower"]
    out["llo.instrs"] = values["llo.emit"]
    out["llo.spilled"] = values["llo.regalloc"]
    out["naim.decode_calls"] = calls["naim.decode"]
    for name in ("naim.repo_bytes_written", "naim.repo_bytes_read",
                 "naim.repo_fetches", "naim.offloads"):
        out[name] = counted[name]
    out["naim.loader_hit_ratio"] = (
        counted["naim.cache_hits"] / counted["naim.touches"]
        if counted["naim.touches"] else 0.0)
    for name in ("part.spawn_s", "part.blob_bytes", "part.partitions",
                 "part.requeues", "incr.reoptimized_modules",
                 "incr.reuse_ratio"):
        out[name] = op.info.get(name, 0)
    server = op.info.get("server_seconds")
    out["serve.overhead_s"] = op.seconds - server if server else 0.0
    covered = covered_seconds(intervals, lo, hi)
    out["driver.unattributed_s"] = max(
        0.0, op.seconds - covered - out["serve.overhead_s"])
    out["driver.unattributed_share"] = (
        out["driver.unattributed_s"] / op.seconds)
    return out
