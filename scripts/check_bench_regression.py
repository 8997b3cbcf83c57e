#!/usr/bin/env python
"""CI bench-regression gate: batch throughput vs committed JSON.

Re-measures the one number least forgivable to regress — warm
``route_batch`` frames/s at the bench's ``batch_1024`` shape
(``n = 1024``, 64-frame batches, numeric payloads, one thread) — and
fails if it drops more than ``--threshold`` (default 20 %) below the
value recorded in the committed ``BENCH_fast_engine.json``.

Warm min-of-k is used for the same reason the bench uses it — it is
the low-noise steady-state estimator, insensitive to one-off scheduler
stalls that p50/p95 exist to surface.

Run from the repository root::

    PYTHONPATH=src python scripts/check_bench_regression.py

``--cluster`` gates the cluster tier the same way, against the
committed ``cluster`` section's 1-replica row (1 replica, so the gate
prices the per-frame placement and lifecycle overhead the cluster adds
on top of one fabric, not the runner's scheduling of K fabrics)::

    PYTHONPATH=src python scripts/check_bench_regression.py --cluster

``--compile`` gates the cold path: n = 1024 plan compile (min-of-k
``compile_frame_plan`` on the bench's assignment) and the warm restore
of the bench's 32-plan snapshot at n = 64 (min-of-k
``FabricSnapshot.restore`` into a fresh faulted fabric), each the best
of up to ten bursts, fail when more than ``--threshold`` slower than
the committed ``sizes`` row's ``plan_compile_ms`` / ``restore``
section's ``restore_ms``::

    PYTHONPATH=src python scripts/check_bench_regression.py --compile

A second mode, ``--adaptive-gate``, compares two ``repro chaos
--overload --summary-out`` artifacts (static vs ``--adaptive``) instead
of re-measuring throughput.  It enforces the adaptive control plane's
contract against the static gate it started from:

* ``--mode 1x`` (at capacity): the adaptive campaign keeps at least
  ``1 - --goodput-loss`` (default 95 %) of the static goodput — the
  loop must not tax a healthy system;
* ``--mode 2x`` (overload): the adaptive campaign sheds at least
  ``--shed-improvement`` (default 20 %) fewer high-priority frames —
  the loop must actually protect the privileged class.

::

    PYTHONPATH=src python scripts/check_bench_regression.py \\
        --adaptive-gate --static static.json --adaptive adaptive.json \\
        --mode 2x

Exit status: 0 when within threshold, 1 on regression, 2 when the
committed JSON is missing or lacks the gated section (regenerate it
with ``pytest benchmarks/bench_fast_engine.py::test_end_to_end_speedup``)
or a summary artifact is missing/malformed.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

import numpy as np

from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.workloads.random_assignments import random_multicast

REPO = pathlib.Path(__file__).resolve().parent.parent


def committed_frames_per_s(
    path: pathlib.Path, section: str = "batch_1024", replicas=None
) -> float:
    """The committed warm frames/s of one bench section, or exit 2 if
    absent.

    The default is the ``batch_1024`` section; the ``--cluster`` gate
    reads the ``cluster`` section's row for ``replicas=1`` (1, not 4,
    so the gate prices the placement/lifecycle overhead rather than
    how the runner schedules K fabrics).
    """
    entry = _committed(path).get(section, {})
    if replicas is not None:
        entry = next(
            (
                row
                for row in entry.get("replicas", [])
                if row.get("replicas") == replicas
            ),
            {},
        )
    if "warm_frames_per_s" in entry:
        return float(entry["warm_frames_per_s"])
    where = section if replicas is None else f"{section} replicas={replicas}"
    print(f"bench regression: no {where} row in {path}", file=sys.stderr)
    sys.exit(2)


def committed_compile_ms(path: pathlib.Path, n: int = 1024) -> float:
    """The committed ``plan_compile_ms`` of the ``sizes`` row for ``n``,
    or exit 2 if absent."""
    data = _committed(path)
    for row in data.get("sizes", []):
        if row.get("n") == n and "plan_compile_ms" in row:
            return float(row["plan_compile_ms"])
    print(f"bench regression: no sizes n={n} row in {path}", file=sys.stderr)
    sys.exit(2)


def committed_restore_ms(path: pathlib.Path) -> float:
    """The committed ``restore`` section's ``restore_ms``, or exit 2 if
    absent."""
    restore = _committed(path).get("restore", {})
    if "restore_ms" not in restore:
        print(f"bench regression: no restore section in {path}", file=sys.stderr)
        sys.exit(2)
    return float(restore["restore_ms"])


def _committed(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        print(f"bench regression: {path} not found", file=sys.stderr)
        sys.exit(2)


def measure_compile_ms(n: int = 1024, k: int = 40, warmup: int = 2) -> float:
    """Min-of-k plan compile milliseconds on the bench's assignment."""
    from repro.core.fastplan import compile_frame_plan

    assignment = random_multicast(n, load=1.0, seed=n)
    for _ in range(warmup):
        compile_frame_plan(assignment)
    return 1e3 * min(
        _timed(compile_frame_plan, assignment) for _ in range(k)
    )


def measure_restore_ms(k: int = 25) -> float:
    """Min-of-k milliseconds of the bench's warm restore: a 32-plan
    snapshot at n = 64 restored into a fresh fabric under the 4-fault
    stuck/dead plan (the bench's ``restore`` section).  Like ``timeit``,
    each timed restore runs with the garbage collector off, so a
    collection the previous fabric left due does not land in it."""
    from repro import FabricSnapshot, MulticastFabric
    from repro.faults import FaultKind, FaultPlan

    n, plans = 64, 32
    fault_plan = FaultPlan.random(
        n, faults=4, seed=1, kinds=[FaultKind.STUCK_AT, FaultKind.DEAD_SWITCH]
    )
    pool = [random_multicast(n, load=1.0, seed=n + i) for i in range(plans)]
    snap = FabricSnapshot(
        n=n,
        assignments=[
            {str(i): sorted(a[i]) for i in a.active_inputs} for a in pool
        ],
    )
    cfg = NetworkConfig(n, engine="fast", fault_plan=fault_plan)

    def restore_once() -> float:
        fabric = MulticastFabric(cfg)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            snap.restore(fabric)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    restore_once()
    return 1e3 * min(restore_once() for _ in range(k))


def best_of_bursts(measure, ceiling: float, bursts: int = 10) -> float:
    """``measure()``, re-taken (up to ``bursts`` bursts, a few seconds
    apart) while above ``ceiling``: a busy host slows every sample of a
    burst, and on a shared host such a phase can last tens of seconds,
    so one slow burst is not yet a regression."""
    measured = measure()
    for _ in range(bursts - 1):
        if measured <= ceiling:
            break
        time.sleep(3.0)
        measured = min(measured, measure())
    return measured


def measure_frames_per_s(k: int = 7, warmup: int = 2) -> float:
    """Warm min-of-k frames/s, same shape as the bench's ``batch_1024``
    section."""
    n, frames = 1024, 64
    assignment = random_multicast(n, load=1.0, seed=n)
    matrix = np.arange(frames * n, dtype=np.int64).reshape(frames, n)
    net = BRSMN(NetworkConfig(n, engine="fast"))
    try:
        for _ in range(warmup):
            net.route_batch(assignment, matrix)
        best = min(
            _timed(net.route_batch, assignment, matrix) for _ in range(k)
        )
    finally:
        net.close()
    return frames / max(best, 1e-9)


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure_cluster_frames_per_s(k: int = 7, warmup: int = 2) -> float:
    """Warm min-of-k frames/s at the bench's cluster-section shape:
    one replica, n = 256, 64-frame campaigns cycling 8 distinct plans."""
    from repro.cluster import ClusterConfig, FabricCluster

    n, frames, distinct = 256, 64, 8
    pool = [
        random_multicast(n, load=1.0, seed=n + i) for i in range(distinct)
    ]
    sequence = [pool[i % distinct] for i in range(frames)]
    cluster = FabricCluster(
        ClusterConfig(
            replicas=1,
            network=NetworkConfig(n, engine="fast"),
            placement_seed=n,
        )
    )

    def campaign():
        for a in sequence:
            cluster.submit(a)

    try:
        for _ in range(warmup):
            campaign()
        best = min(_timed(campaign) for _ in range(k))
    finally:
        cluster.close()
    return frames / max(best, 1e-9)


def load_summary(path: pathlib.Path) -> dict:
    """A ``--summary-out`` artifact as a dict, or exit 2."""
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"adaptive gate: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    missing = {"goodput", "shed_high"} - set(data)
    if missing:
        print(
            f"adaptive gate: {path} lacks {sorted(missing)} "
            "(regenerate with repro chaos --overload --summary-out)",
            file=sys.stderr,
        )
        sys.exit(2)
    return data


def adaptive_gate(args) -> int:
    """Compare adaptive vs static campaign summaries; 0 pass, 1 fail."""
    static = load_summary(args.static)
    adaptive = load_summary(args.adaptive)
    if args.mode == "1x":
        floor = static["goodput"] * (1.0 - args.goodput_loss)
        ok = adaptive["goodput"] >= floor
        print(
            f"adaptive gate (1x): adaptive goodput {adaptive['goodput']} vs "
            f"static {static['goodput']} (floor {floor:.1f} at "
            f"-{args.goodput_loss:.0%}) -> {'OK' if ok else 'REGRESSION'}"
        )
        return 0 if ok else 1
    ceiling = static["shed_high"] * (1.0 - args.shed_improvement)
    # A static campaign that sheds no high-priority traffic leaves
    # nothing to improve on; the adaptive run just must not regress it.
    ok = adaptive["shed_high"] <= ceiling
    print(
        f"adaptive gate (2x): adaptive shed_high {adaptive['shed_high']} vs "
        f"static {static['shed_high']} (ceiling {ceiling:.1f} at "
        f"-{args.shed_improvement:.0%}) -> {'OK' if ok else 'REGRESSION'}"
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=REPO / "BENCH_fast_engine.json",
        help="committed bench artifact to compare against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop (default 0.20); with "
        "--compile, the tolerated fractional slow-down",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="gate the cluster section's 1-replica warm frames/s row "
        "instead of the n=1024 batch row",
    )
    parser.add_argument(
        "--compile",
        action="store_true",
        help="gate n=1024 plan compile time and the 32-plan warm "
        "restore against the committed sizes row and restore section "
        "instead of a throughput row",
    )
    parser.add_argument(
        "--adaptive-gate",
        action="store_true",
        help="compare adaptive vs static overload summaries instead of "
        "re-measuring batch throughput",
    )
    parser.add_argument(
        "--static",
        type=pathlib.Path,
        help="adaptive gate: the static campaign's --summary-out JSON",
    )
    parser.add_argument(
        "--adaptive",
        type=pathlib.Path,
        help="adaptive gate: the --adaptive campaign's --summary-out JSON",
    )
    parser.add_argument(
        "--mode",
        choices=("1x", "2x"),
        default="2x",
        help="adaptive gate: 1x gates goodput, 2x gates high-priority sheds",
    )
    parser.add_argument(
        "--goodput-loss",
        type=float,
        default=0.05,
        help="adaptive gate 1x: tolerated fractional goodput loss",
    )
    parser.add_argument(
        "--shed-improvement",
        type=float,
        default=0.20,
        help="adaptive gate 2x: required fractional high-priority "
        "shed reduction",
    )
    args = parser.parse_args(argv)

    if args.adaptive_gate:
        if args.static is None or args.adaptive is None:
            parser.error("--adaptive-gate requires --static and --adaptive")
        return adaptive_gate(args)

    if args.compile:
        failed = False
        for label, committed, measure in (
            ("n=1024 plan compile", committed_compile_ms(args.json),
             measure_compile_ms),
            ("n=64 32-plan restore", committed_restore_ms(args.json),
             measure_restore_ms),
        ):
            ceiling = committed * (1.0 + args.threshold)
            measured = best_of_bursts(measure, ceiling)
            verdict = "OK" if measured <= ceiling else "REGRESSION"
            failed |= measured > ceiling
            print(
                f"{label}: measured {measured:.2f} ms vs committed "
                f"{committed:.2f} ms (ceiling {ceiling:.2f} at "
                f"+{args.threshold:.0%}) -> {verdict}"
            )
        return 1 if failed else 0
    if args.cluster:
        committed = committed_frames_per_s(
            args.json, section="cluster", replicas=1
        )
        measured = measure_cluster_frames_per_s()
        label = "cluster (1-replica) warm campaign throughput"
    else:
        committed = committed_frames_per_s(args.json)
        measured = measure_frames_per_s()
        label = "n=1024 batch throughput"
    floor = committed * (1.0 - args.threshold)
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"{label}: measured {measured:,.0f} frames/s "
        f"vs committed {committed:,.0f} (floor {floor:,.0f} at "
        f"-{args.threshold:.0%}) -> {verdict}"
    )
    return 0 if measured >= floor else 1


if __name__ == "__main__":
    sys.exit(main())
