"""Thin-link WPA: summary-only vs materializing whole-program phase.

Builds the same synthetic program at +O4 across a >=4x range of scale
factors, once per WPA driver:

* ``materialize`` -- the classic WPA, kept as the test oracle
  ``tests/oracles/materialize_wpa.py``: every routine body is expanded
  on the coordinator before any cross-module decision;
* ``summary`` -- the production thin link: phases 0-4.5 read only the
  enriched ``RoutineFacts`` graph, record their decisions in a replay
  plan, and bodies load lazily (per partition) at phase 5.

For every scale the two images are byte-compared -- the thin link is
an optimization of *when* bodies load, never of *what* is decided --
and the table reports the WPA phase's wall-clock and its peak modeled
bytes (``MemoryAccountant`` peak at the end of phase 4.5).  The
paper-scale claim under test: summary-mode WPA peak is bounded by the
summary graph, so it stays flat while materializing peak grows with
routine-body count.

``--check`` (the CI ``thin-wpa-smoke`` job) enforces, machine
independently:

* byte identity at every scale;
* body-count independence -- summary-mode WPA peak growth across the
  >=4x scale sweep, normalized by routine growth, stays under the
  committed ceiling (the summary graph itself grows with routine
  count, so the bound is relative, not absolute);
* the peak-memory reduction (materialize / summary at the largest
  scale) stays above the committed floor
  (``baselines/thin_wpa_baseline.json``, recorded as measured x
  ``FLOOR_FRACTION`` per the docs/performance.md policy).

``--update-baseline`` rewrites the floor from this run.  Run
standalone (``python benchmarks/bench_thin_wpa.py [--quick]
[--check]``) or via ``pytest benchmarks/bench_thin_wpa.py -s``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.synth import WorkloadConfig, generate
from tests.oracles.materialize_wpa import materializing_wpa

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines", "thin_wpa_baseline.json",
)

#: When rewriting the baseline, commit this fraction of the measured
#: reduction as the floor (generous: machines vary, the shape of the
#: win does not).
FLOOR_FRACTION = 0.75

#: Module counts per sweep point; the largest is >= 4x the smallest,
#: so a flat summary-mode peak across the sweep demonstrates
#: body-count independence.
SCALES = (7, 14, 28)
SCALES_QUICK = (4, 8, 16)


def _build(sources):
    # OFFLOAD-pinned NAIM so the accountant models the real residency
    # discipline at scale (bodies round-trip through the repository);
    # without pressure both drivers would simply keep every parsed body
    # expanded and the peak would measure the front end, not WPA.
    options = CompilerOptions(
        opt_level=4,
        naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
    )
    start = time.perf_counter()
    build = Compiler(options).build(sources)
    seconds = time.perf_counter() - start
    hlo = build.hlo_result
    return {
        "image": encode_executable(build.executable),
        "seconds": seconds,
        "wpa_seconds": sum(
            value for key, value in hlo.phase_seconds.items()
            if key.startswith("wpa")
        ),
        "scalar_seconds": hlo.phase_seconds.get("scalar", 0.0)
        + hlo.phase_seconds.get("scalar.replay", 0.0),
        "wpa_peak_bytes": hlo.wpa_peak_bytes,
        "coordinator_peak_bytes": hlo.peak_bytes,
        "routines": len(list(hlo.unit.routine_names())),
    }


def run_bench(quick=False):
    scales = SCALES_QUICK if quick else SCALES
    rows = []
    sweep = []
    byte_identical = True
    for n_modules in scales:
        app = generate(
            WorkloadConfig("thinwpa%d" % n_modules, n_modules=n_modules,
                           routines_per_module=6, n_features=4,
                           dispatch_count=120, seed=41,
                           scale_note="thin-WPA bench")
        )
        with materializing_wpa():
            materialize = _build(app.sources)
        summary = _build(app.sources)
        if materialize["image"] != summary["image"]:
            byte_identical = False
        point = {
            "n_modules": n_modules,
            "routines": summary["routines"],
            "byte_identical": materialize["image"] == summary["image"],
            "materialize": {
                k: v for k, v in materialize.items() if k != "image"
            },
            "summary": {k: v for k, v in summary.items() if k != "image"},
            "wpa_peak_reduction": (
                materialize["wpa_peak_bytes"]
                / summary["wpa_peak_bytes"]
                if summary["wpa_peak_bytes"] else 0.0
            ),
        }
        sweep.append(point)
        rows.append(
            "  %3d modules (%4d routines)   WPA peak %9d B -> %8d B "
            "(x%.2f)   WPA time %.3fs -> %.3fs"
            % (n_modules, summary["routines"],
               materialize["wpa_peak_bytes"], summary["wpa_peak_bytes"],
               point["wpa_peak_reduction"],
               materialize["wpa_seconds"], summary["wpa_seconds"])
        )

    summary_peaks = [p["summary"]["wpa_peak_bytes"] for p in sweep]
    flatness = (max(summary_peaks) / min(summary_peaks)
                if min(summary_peaks) else 0.0)
    routine_growth = sweep[-1]["routines"] / sweep[0]["routines"]
    # The summary graph itself grows linearly with routine count, so
    # absolute flatness cannot be 1.0; body-count independence means
    # peak growth is a small fraction of routine growth.
    normalized_growth = flatness / routine_growth if routine_growth else 0.0
    largest = sweep[-1]
    lines = [
        "thin-WPA bench: materialize vs summary, %s scale sweep"
        % "/".join(str(s) for s in scales),
        "",
    ] + rows + [
        "",
        "  summary-mode peak grew x%.2f across x%.1f routine growth "
        "(normalized %.2f; 0 = perfectly body-count-independent)"
        % (flatness, routine_growth, normalized_growth),
        "  peak reduction at largest scale: x%.2f"
        % largest["wpa_peak_reduction"],
        "  images byte-identical at every scale: %s"
        % ("yes" if byte_identical else "NO"),
    ]
    payload = {
        "quick": bool(quick),
        "scales": list(scales),
        "sweep": sweep,
        "byte_identical": byte_identical,
        "summary_peak_flatness": flatness,
        "routine_growth": routine_growth,
        "normalized_peak_growth": normalized_growth,
        "peak_reduction_largest": largest["wpa_peak_reduction"],
    }
    return "\n".join(lines), payload


def check(payload):
    """Machine-independent regression guard; returns (baseline,
    failures)."""
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    failures = []
    if not payload["byte_identical"]:
        failures.append("summary-mode image diverged from materialize")
    if payload["normalized_peak_growth"] > baseline["max_peak_growth"]:
        failures.append(
            "summary WPA peak grew x%.2f across x%.1f routine growth "
            "(normalized %.2f > committed ceiling %.2f): peak is no "
            "longer body-count-independent"
            % (payload["summary_peak_flatness"],
               payload["routine_growth"],
               payload["normalized_peak_growth"],
               baseline["max_peak_growth"])
        )
    if payload["peak_reduction_largest"] < baseline["min_peak_reduction"]:
        failures.append(
            "WPA peak reduction x%.2f below committed floor x%.2f"
            % (payload["peak_reduction_largest"],
               baseline["min_peak_reduction"])
        )
    return baseline, failures


def test_thin_wpa_bench():
    text, payload = run_bench(quick=True)
    print()
    print(text)
    assert payload["byte_identical"]
    save_result("thin_wpa_quick", text)
    save_json("thin_wpa", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="4/8/16 modules instead of 7/14/28")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed "
                        "flatness ceiling and reduction floor")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed floors from this run")
    args = parser.parse_args(argv)
    text, payload = run_bench(quick=args.quick)
    print(text)
    save_result("thin_wpa", text)
    save_json("thin_wpa", payload)
    if args.check:
        baseline, failures = check(payload)
        if failures:
            for failure in failures:
                print("REGRESSION: %s" % failure, file=sys.stderr)
            return 1
        print("check: ok (normalized peak growth %.2f <= %.2f, "
              "reduction x%.2f >= x%.2f)"
              % (payload["normalized_peak_growth"],
                 baseline["max_peak_growth"],
                 payload["peak_reduction_largest"],
                 baseline["min_peak_reduction"]))
    if args.update_baseline:
        baseline = {
            # Body-count independence is a correctness-shaped property
            # (peak bounded by summaries, not bodies); keep a fixed
            # generous ceiling rather than tracking the measured value.
            "max_peak_growth": 0.5,
            "min_peak_reduction": round(
                payload["peak_reduction_largest"] * FLOOR_FRACTION, 2
            ),
        }
        with open(BASELINE_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline -> %s" % BASELINE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
