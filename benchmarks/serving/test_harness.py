"""Tests of the serving benchmark harness, at a small scale.

    PYTHONPATH=src python -m pytest benchmarks/serving -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from spans import SPAN_NAMES, Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Spans each workload's timed calls must reach; every other span must
#: never fire there.
FIRES = {
    "warm_cluster": {
        "cluster.submit",
        "cluster.router.order",
        "cluster.replica.submit",
        "serialization.assignment_fingerprint",
        "fabric.submit",
        "brsmn.route",
        "fastplan.plan_cache.get",
        "fastplan.apply",
        "verification.verify_result",
    },
    "cold_churn": {
        "serialization.assignment_fingerprint",
        "fabric.submit",
        "brsmn.route",
        "fastplan.plan_cache.get",
        "fastplan.compile_frame_plan",
        "fastplan.apply",
        "verification.verify_result",
    },
    "batch_stream": {
        "serialization.assignment_fingerprint",
        "brsmn.route_batch",
        "fastplan.plan_cache.get",
        "fastplan.apply_batch",
    },
    "faulted_overload": set(SPAN_NAMES)
    - {"brsmn.route_batch", "fastplan.apply_batch"},
}


def run_benchmark(tmp_path, *args):
    """Run ``run.py``; returns ``(process, last-line JSON)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of one short traced run of every workload."""
    _, result = run_benchmark(
        tmp_path_factory.mktemp("trace"), "--trace", "1", "--seconds", "2"
    )
    assert result["correct"] and result["failed"] == 0
    return {
        w: {name: m["value"] for name, m in metrics.items()}
        for w, metrics in result["metrics"].items()
    }


def test_end_to_end_output_matches_spec(tmp_path):
    proc, result = run_benchmark(
        tmp_path, "--workload", "batch_stream", "--seconds", "1", "--rounds", "2"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1] for line in proc.stdout.splitlines()[:-1]}
    assert set(expected) <= printed
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_output_matches_spec(traced):
    expected = {m["name"] for m in SPEC["per_layer"]}
    assert len(expected) < 70
    for metrics in traced.values():
        assert set(metrics) == expected


def test_spans_fire_exactly_where_expected(traced):
    for workload, metrics in traced.items():
        fired = {s for s in SPAN_NAMES if metrics[f"{s}.calls_per_frame"] > 0}
        assert fired == FIRES[workload], workload
    # The named placements of the benchmark's design.
    assert traced["warm_cluster"]["fastplan.compile_frame_plan.calls_per_frame"] == 0
    assert traced["warm_cluster"]["serialization.assignment_fingerprint.calls_per_frame"] == 2
    assert traced["warm_cluster"]["plan_cache.hit_ratio"] == 1.0
    assert traced["cold_churn"]["plan_cache.hit_ratio"] == 0.0
    assert traced["batch_stream"]["brsmn.route_batch.calls_per_frame"] == 1 / 64


def test_trace_coverage_is_complete(traced):
    for workload, metrics in traced.items():
        assert abs(metrics["trace.coverage"] - 1.0) <= 0.01, workload
        assert metrics["trace.overhead"] > 0


def test_self_time_arithmetic():
    # frame 0: a [0, 100] > b [10, 40] > c [20, 25]; a > d [50, 90]
    # frame 1: e [200, 230]
    spans = [
        ("a", 0, 100, -1, 0),
        ("b", 10, 40, 0, 0),
        ("c", 20, 25, 1, 0),
        ("d", 50, 90, 0, 0),
        ("e", 200, 230, -1, 1),
    ]
    assert self_times(spans) == [30, 25, 5, 40, 30]
    assert sum(self_times(spans)) == 100 + 30


def test_layer_metrics_from_recorded_spans():
    tracer = Tracer()
    outer = tracer.wrap("fabric.submit", lambda x: inner(x) + 1)
    inner = tracer.wrap("brsmn.route", lambda x: x * 2)
    assert outer(1) == 3  # not armed: nothing recorded
    assert tracer.spans == []
    tracer.armed = True
    for x in range(4):
        outer(x)
    tracer.armed = False
    spans = tracer.spans
    assert [s[0] for s in spans[:2]] == ["fabric.submit", "brsmn.route"]
    assert [(s[3], s[4]) for s in spans] == [(-1, 0), (0, 0), (-1, 1), (2, 1),
                                             (-1, 2), (4, 2), (-1, 3), (6, 3)]
    total = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    metrics = layer_metrics(tracer, 4, total, {"spillovers": 0, "requeues": 0})
    assert metrics["fabric.submit.calls_per_frame"] == 1
    assert metrics["brsmn.route.calls_per_frame"] == 1
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["fabric.submit.self_share"] + metrics["brsmn.route.self_share"] == pytest.approx(1.0)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "batch_stream", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        ([100] * 10, [120] * 10, "higher", 0.1, "better"),
        ([100] * 10, [80] * 10, "higher", 0.1, "worse"),
        ([100] * 10, [95] * 10, "higher", 0.1, "unchanged"),
        ([100, 60, 140, 100], [99, 61, 139, 98], "higher", 0.1, "unresolved"),
        ([10] * 10, [9] * 10, "lower", 0.1, "better"),
        ([100], [105], "lower", 0.1, "unchanged"),
        ([0.2], [0.21], "lower", 0.0, "worse"),
        ([0.2], [0.2], "lower", 0.0, "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected
