"""End-to-end +O4 build benchmark, split by layer.

Usage, from the root of a repository checkout::

    python3 bench_e2e/run.py --workload cold_o4_mcad1 --seed 1 \\
        --seconds 15 --trace 0 [--record]

``--trace 0`` times untraced builds and reports the end-to-end
metrics; ``--trace 1`` runs half of the time untraced and half with
span tracing, and reports the per-layer metrics, the tracing overhead
and how much of each build no layer covers.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record`` appends that object to
``bench_e2e/history/e2e.jsonl``.  See ``bench_e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HISTORY = os.path.join(BENCH_DIR, "history", "e2e.jsonl")

#: Set-ups per untraced run; ``setup_s`` is their median, so one slow
#: set-up does not move it.  Three, not more: the edit loop's set-up
#: (training, daemon start, first full build) takes about 10 s.
SETUP_REPEATS = 3

now = time.perf_counter


def run_phase(workload, seconds: float, recorder=None) -> list:
    """Closed loop, one client: the next op starts when one ends."""
    ops = []
    deadline = now() + seconds
    while not ops or now() < deadline:
        ops.append(workload.run_op(recorder))
    return ops


def p50(ops) -> float:
    good = [op.seconds for op in ops if not op.failed] or [
        op.seconds for op in ops]
    return statistics.median(good)


def error_rate(ops) -> float:
    """Failed ops over attempted ops."""
    return sum(1 for op in ops if op.failed) / len(ops)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Publishing an LTRANS blob in shared memory starts the tracker as a
    child of this process, and it would otherwise outlive the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run_untraced(workload_cls, args, workdir: str):
    setups = []
    workload = None
    for repeat in range(SETUP_REPEATS):
        candidate = workload_cls(args.seed,
                                 os.path.join(workdir, "setup%d" % repeat))
        start = now()
        try:
            candidate.setup()
        except BaseException:
            candidate.close()
            raise
        setups.append(now() - start)
        if repeat + 1 < SETUP_REPEATS:
            candidate.close()
        else:
            workload = candidate
    try:
        ops = run_phase(workload, args.seconds)
        workload.finish_phase(ops)
    finally:
        workload.close()
    vm = workload.vm
    metrics = {
        "build_s.p50": p50(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "naim_peak_mb": (workload.first_peak or 0) / 2.0 ** 20,
        "vm_cycles_per_step": vm.cycles_per_step if vm else 0.0,
        "code_instrs": vm.code_instrs if vm else 0,
    }
    print("setup: %s s" % ", ".join("%.3f" % s for s in setups))
    if vm is not None:
        print("vm: %d cycles over %d interpreter steps, %d instrs"
              % (vm.cycles, vm.steps, vm.code_instrs))
    if len(ops) >= 100:
        print("build_s.p90: %.4f s" % statistics.quantiles(
            [op.seconds for op in ops], n=10)[-1])
    return ops, metrics


def run_traced(workload_cls, args, workdir: str):
    import layers
    import tracing

    workload = workload_cls(args.seed, os.path.join(workdir, "setup"))
    start = now()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    print("setup: %.3f s (not reported in a traced run)" % (now() - start))
    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir)
    recorder = tracing.Recorder(trace_dir)
    installation = None
    in_process = workload.in_process
    try:
        untraced = run_phase(workload, args.seconds / 2.0)
        if in_process:
            installation = tracing.install(recorder)
            recorder.enabled = False
        workload.start_phase(None if in_process else trace_dir)
        traced = run_phase(workload, args.seconds / 2.0,
                           recorder if in_process else None)
        workload.finish_phase(traced)
    finally:
        if installation is not None:
            installation.undo()
        workload.close()
    records = tracing.load_dir(trace_dir)
    tracing.merge_into(records, recorder.export())
    spans, counts = records["spans"], records["counts"]
    own = tracing.self_times(spans)
    per_op = [layers.op_layer_metrics(op, spans, own, counts)
              for op in traced]

    metrics = {}
    for name, _unit, _better in layers.PER_LAYER:
        if name.startswith("trace."):
            continue
        if layers.is_timing(name):
            metrics[name] = statistics.median(row[name] for row in per_op)
        else:
            metrics[name] = per_op[0][name]
    if in_process:
        # Identical builds: every traced op must reproduce the counts.
        for op, row in zip(traced[1:], per_op[1:]):
            for name, value in row.items():
                if layers.is_exact_count(name) and value != per_op[0][name]:
                    op.fail("count drift: %s %r != %r"
                            % (name, value, per_op[0][name]))
    untraced_p50, traced_p50 = p50(untraced), p50(traced)
    metrics["trace.untraced_build_s.p50"] = untraced_p50
    metrics["trace.build_s.p50"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0

    vm = workload.vm
    if vm is not None:
        print("determinism: vm_cycles=%d code_instrs=%d naim_peak_bytes=%d"
              % (vm.cycles, vm.code_instrs, workload.first_peak))
    share = metrics["driver.unattributed_share"]
    print("tracing: build_s.p50 untraced %.4f s, traced %.4f s "
          "(overhead %+.1f%%); %d + %d ops"
          % (untraced_p50, traced_p50, 100.0 * metrics["trace.overhead_ratio"],
             len(untraced), len(traced)))
    print("coverage: driver.unattributed_s %.4f s = %.1f%% of the op"
          % (metrics["driver.unattributed_s"], 100.0 * share))
    if share > 0.10:
        site, seconds = tracing.largest_gap(spans, traced[0].start,
                                            traced[0].end)
        print("largest uncovered call site: %s (%.4f s in the first "
              "traced op)" % (site, seconds))
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end +O4 build benchmark, split by layer.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the result to the history file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: no repro sources under %s; run from the root of "
              "a repository checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    # A terminated run still stops its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # Scratch state (daemon roots, profiles, traces) stays inside the
    # checkout and is removed afterwards.
    workdir = os.path.join(ROOT, ".bench_e2e_work", str(os.getpid()))
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        if args.trace:
            ops, metrics = run_traced(workload_cls, args, workdir)
        else:
            ops, metrics = run_untraced(workload_cls, args, workdir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if not os.listdir(parent):
            os.rmdir(parent)

    import layers

    failed = sum(1 for op in ops if op.failed)
    print("op seconds: %s" % " ".join("%.3f" % op.seconds for op in ops))
    for op in ops:
        if op.failed:
            print("failed op: %s" % op.error)
    print("%s seed %d: %d ops, %d failed, error_rate %.4f"
          % (args.workload, args.seed, len(ops), failed, error_rate(ops)))
    for name, value in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, layers.UNITS[name]))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": layers.UNITS[name]}
                    for name, value in metrics.items()},
    }
    if args.record:
        os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
        row = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime())}
        row.update(result)
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
