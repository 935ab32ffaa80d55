"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import BuildEngine, CompilerOptions  # noqa: E402
from repro.synth import WorkloadConfig, generate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small_config(seed=3):
    return WorkloadConfig("bench-test", n_modules=5, routines_per_module=4,
                          n_features=2, dispatch_count=20, input_size=8,
                          seed=seed)


# -- Self time ---------------------------------------------------------------------


def _row(name, start, end, parent=-1, value=0):
    return [name, start, end, 1, 1, parent, value]


def test_self_time_nested_and_sibling_spans():
    spans = [
        _row("root", 0.0, 10.0),
        _row("a", 1.0, 4.0, parent=0),
        _row("b", 5.0, 9.0, parent=0),
        _row("c", 6.0, 7.0, parent=2),
        _row("sibling", 11.0, 12.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [3.0, 3.0, 3.0, 1.0, 1.0])


def test_recorder_links_children_to_parents():
    recorder = tracing.Recorder()

    def leaf():
        return 7

    traced_leaf = recorder.wrap_span("leaf", leaf, value_of=lambda v: v)

    def outer():
        return traced_leaf() + traced_leaf()

    assert recorder.wrap_span("outer", outer)() == 14
    rows = recorder.export()["spans"]
    names = [row[0] for row in rows]
    assert names == ["leaf", "leaf", "outer"]
    assert rows[0][5] == rows[1][5] == 2 and rows[2][5] == -1
    assert rows[0][6] == 7
    own = tracing.self_times(rows)
    outer_row = rows[2]
    assert own[0] + own[1] + own[2] == pytest.approx(
        outer_row[2] - outer_row[1])


def test_coverage_is_the_union_of_intervals():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    # [0, 3] + [5, 6] + [9, 10] once clipped to the window.
    assert tracing.covered_seconds(intervals, 0.0, 10.0) == pytest.approx(
        5.0)
    spans = [_row("x", 0.0, 2.0), _row("y", 5.0, 6.0)]
    site, seconds = tracing.largest_gap(spans, 0.0, 10.0)
    assert site == "after y before op end" and seconds == pytest.approx(4.0)


# -- Metric names ------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in layers.END_TO_END + layers.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


# -- Edits -------------------------------------------------------------------------


def test_edit_changes_one_module_and_reoptimizes_cmo():
    app = generate(small_config())
    reference = workloads.Reference([app.make_input(seed=2)])
    reachable = workloads.reachable_routines(
        reference.program(app.sources))
    edits = workloads.EditSequence(app.sources, reachable, seed=5)
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(app.sources)
    before = dict(app.sources)
    for _ in range(3):
        name, after = edits.next()
        changed = [m for m in after if after[m] != before[m]]
        assert changed == [name]
        _result, report = engine.build(after)
        assert len(report.cmo_reoptimized) >= 1
        before = after


def test_held_out_inputs_are_stratified_and_seeded():
    app = generate(WorkloadConfig("bench-test", n_modules=5,
                                  routines_per_module=4, n_features=4,
                                  zipf_s=1.5, input_size=64, seed=3))
    first = workloads.held_out_inputs(app, seed=1)
    assert first == workloads.held_out_inputs(app, seed=1)
    assert first != workloads.held_out_inputs(app, seed=2)
    dispatched = [value for one in first
                  for value in one["input_data"][:workloads.DISPATCH_COUNT]]
    assert all(len(one["input_data"]) == 64 for one in first)
    total = sum(app.feature_weights)
    for feature, weight in enumerate(app.feature_weights):
        share = len(dispatched) * weight / total
        assert abs(dispatched.count(feature) - share) < 1


def test_edit_sequence_is_seeded():
    app = generate(small_config())
    reachable = workloads.reachable_routines(
        workloads.Reference([]).program(app.sources))
    first = workloads.EditSequence(app.sources, reachable, seed=9)
    second = workloads.EditSequence(app.sources, reachable, seed=9)
    for _ in range(4):
        assert first.next() == second.next()


# -- Correctness gate --------------------------------------------------------------


class _SmallCold(workloads.ColdBuild):
    name = "small_cold"

    def config(self):
        return small_config()


class _WrongOutput:
    def __init__(self, real):
        self.value = real.value + 1
        self.steps = real.steps


def test_error_rate_counts_a_wrong_reference_output(tmp_path):
    workload = _SmallCold(seed=1, workdir=str(tmp_path))
    workload.setup()
    good = workload.run_op()
    assert not good.failed, good.error

    wrong = _SmallCold(seed=1, workdir=str(tmp_path))
    wrong.setup()
    wrong.expected = [_WrongOutput(wrong.expected[0])] + wrong.expected[1:]
    bad = wrong.run_op()
    assert bad.failed and "VM output" in bad.error
    assert run.error_rate([good, bad]) == 0.5


def test_cold_op_fails_when_the_image_changes(tmp_path):
    workload = _SmallCold(seed=1, workdir=str(tmp_path))
    workload.setup()
    workload.run_op()
    workload.first_sha = "0" * 64
    op = workload.run_op()
    assert op.failed and "SHA-256" in op.error
