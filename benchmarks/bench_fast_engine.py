"""Beyond-paper — the vectorised fast engine vs the reference engine.

Measures the compiled gather-plan engine (``engine="fast"``) against
the faithful per-switch distributed simulation on identical end-to-end
BRSMN frames, plus the underlying kernels, and regenerates:

* ``benchmarks/out/fast_engine.txt`` — the human-readable speedup
  table;
* ``BENCH_fast_engine.json`` at the repo root — machine-readable
  (n, reference ms, fast ms, batch throughput, plus a ``batch_1024``
  section: warm/cold ``route_batch`` frames/s at n = 1024 on one
  thread with p50/p95 and the host's cpu_count, and a ``restore``
  section: a 32-plan warm restore, batched vs one
  compile per plan) so future PRs can track the perf trajectory
  (``scripts/check_bench_regression.py`` gates on it in CI).

All timings are min-of-k with a warmup iteration: the *minimum* over k
repeats is the standard low-noise estimator for CPU-bound code (any
positive error — GC, scheduler — only inflates a sample, never
deflates it), and the warmup both fills NumPy's internal caches and
pre-populates the plan cache so the fast numbers reflect hotspot
steady state (plan compile cost is reported separately).  The two
zero-cost checks (NullSink, empty FaultPlan) gate on the median ratio
of paired samples taken in turn instead.
"""

import json
import math
import os
import pathlib
import random
import statistics
import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.core.fastplan import compile_frame_plan
from repro.core.tags import Tag
from repro.core.verification import verify_result
from repro.faults import FaultKind, FaultPlan
from repro.obs import NullSink
from repro.rbn.bitsort import route_to_compact
from repro.rbn.cells import cells_from_tags
from repro.rbn.fast import fast_quasisort, fast_sort_cells
from repro.rbn.quasisort import quasisort
from repro.resilience import FabricSnapshot
from repro.workloads.random_assignments import random_multicast

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_fast_engine.json"


def min_of_k(fn, *, k=5, warmup=1):
    """Minimum wall-clock seconds of ``fn()`` over ``k`` timed repeats."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def interleaved_samples(fns, *, k=31, warmup=1):
    """``k`` wall-clock seconds of each of ``fns``, sampled in turn so a
    load burst on a shared host slows every side alike, not just one."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for _ in range(k):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            samples[i].append(time.perf_counter() - t0)
    return samples


def paired_overhead(base, other):
    """Median over rounds of ``other / base - 1``.  A round's two
    samples are taken back to back, and the median ignores the rounds
    a burst hit on one side only; a ratio of two minima does not, since
    one lucky fast sample on either side moves it."""
    return statistics.median(o / max(b, 1e-9) for b, o in zip(base, other)) - 1.0


def timing_stats(fn, *, k=7, warmup=1):
    """Min / p50 / p95 wall-clock seconds of ``fn()`` over ``k`` repeats.

    Min is the low-noise steady-state estimator; the percentiles make
    jitter visible (compile stalls, scheduler noise), so the bench
    reports both.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return {
        "min_s": samples[0],
        "p50_s": samples[len(samples) // 2],
        "p95_s": samples[max(0, math.ceil(0.95 * len(samples)) - 1)],
    }


def restore_section(k=9):
    """Warm restore of a 32-plan snapshot at n = 64 under the 4-fault
    stuck/dead plan of the serving benchmark's ``faulted_overload``:
    one ``compile_frame_plan`` per plan vs one ``FabricSnapshot.restore``
    (a batched compile plus in-order cache inserts) into a fresh
    fabric.  The same measurement is gated by
    ``scripts/check_bench_regression.py --compile``."""
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

    def sequential_once():
        t0 = time.perf_counter()
        for a in pool:
            compile_frame_plan(a, fault_plan=fault_plan)
        return time.perf_counter() - t0

    def restore_once():
        fabric = MulticastFabric(cfg)
        t0 = time.perf_counter()
        assert snap.restore(fabric) == plans
        return time.perf_counter() - t0

    # Alternate the two, so a change in host load hits both sides.
    samples = [(sequential_once(), restore_once()) for _ in range(k + 1)][1:]
    sequential_s = min(s for s, _ in samples)
    restore_s = min(r for _, r in samples)
    return {
        "n": n,
        "plans": plans,
        "faults": len(fault_plan.faults),
        "sequential_compile_ms": round(sequential_s * 1e3, 4),
        "restore_ms": round(restore_s * 1e3, 4),
        "speedup": round(sequential_s / max(restore_s, 1e-9), 1),
    }


def _binary_tags(n, seed):
    rng = random.Random(seed)
    return [rng.choice([Tag.ZERO, Tag.ONE]) for _ in range(n)]


def test_end_to_end_speedup(write_artifact, benchmark):
    """Full-frame BRSMN routing, reference vs fast, plus 64-frame batch."""
    rows = []
    results = {"sizes": [], "batch": {}}
    for n, k_ref in ((64, 5), (256, 3), (1024, 2)):
        a = random_multicast(n, load=1.0, seed=n)
        ref_net = BRSMN(n)
        fast_net = BRSMN(NetworkConfig(n, engine="fast"))
        ref_s = min_of_k(lambda: ref_net.route(a), k=k_ref, warmup=1)
        compile_s = min_of_k(lambda: compile_frame_plan(a), k=10, warmup=1)
        fast_s = min_of_k(lambda: fast_net.route(a), k=7, warmup=1)
        speedup = ref_s / max(fast_s, 1e-9)
        rows.append(
            [n, f"{ref_s * 1e3:.2f}", f"{fast_s * 1e3:.3f}",
             f"{compile_s * 1e3:.3f}", f"{speedup:.0f}x"]
        )
        results["sizes"].append(
            {
                "n": n,
                "reference_ms": round(ref_s * 1e3, 4),
                "fast_ms": round(fast_s * 1e3, 4),
                "plan_compile_ms": round(compile_s * 1e3, 4),
                "speedup": round(speedup, 1),
            }
        )
        if n == 1024:
            assert speedup >= 10.0, (
                f"fast engine only {speedup:.1f}x at n=1024 (need >= 10x)"
            )

    # -- batched frames: 64 frames in one gather vs 64 sequential calls
    n, frames = 256, 64
    a = random_multicast(n, load=1.0, seed=7)
    fast_net = BRSMN(NetworkConfig(n, engine="fast"))
    mat = np.arange(frames * n).reshape(frames, n).astype(object)

    def sequential():
        for f in range(frames):
            fast_net.route(a, payloads=list(mat[f]))

    batch_s = min_of_k(lambda: fast_net.route_batch(a, mat), k=5, warmup=1)
    seq_s = min_of_k(sequential, k=3, warmup=1)
    assert batch_s < seq_s, "batched routing must beat sequential fast calls"
    results["batch"] = {
        "n": n,
        "frames": frames,
        "batch_ms": round(batch_s * 1e3, 4),
        "sequential_ms": round(seq_s * 1e3, 4),
        "batch_speedup": round(seq_s / max(batch_s, 1e-9), 1),
        "batch_frames_per_s": round(frames / max(batch_s, 1e-9), 1),
    }

    # -- observability: a disabled observer must be pay-for-what-you-use.
    # Same batch workload, network constructed with a NullSink attached;
    # the emission sites gate on ``observer.enabled`` so the only added
    # cost is one attribute test per frame.  5% is the acceptance bar
    # from the obs-layer design, applied to the median paired ratio of
    # the two sides sampled in turn (see ``paired_overhead``).
    null_net = BRSMN(NetworkConfig(n, engine="fast", observer=NullSink()))
    bare, sunk = interleaved_samples(
        [
            lambda: fast_net.route_batch(a, mat),
            lambda: null_net.route_batch(a, mat),
        ]
    )
    bare_s, null_s = min(bare), min(sunk)
    overhead = paired_overhead(bare, sunk)
    assert overhead < 0.05, (
        f"NullSink overhead {overhead:.1%} on batch routing (need < 5%)"
    )
    results["observer"] = {
        "n": n,
        "frames": frames,
        "batch_ms": round(bare_s * 1e3, 4),
        "nullsink_batch_ms": round(null_s * 1e3, 4),
        "nullsink_overhead": round(overhead, 4),
    }

    # -- fault layer: an *empty* FaultPlan must be free.  NetworkConfig
    # normalises empty plans to None before the network is built, so no
    # injector is attached and the faultless fast path is literally the
    # same code; the 3% bar (measurement noise only) is the acceptance
    # criterion for the fault-injection layer, measured like the
    # NullSink overhead above.
    plain_net = BRSMN(NetworkConfig(n, engine="fast"))
    empty_net = BRSMN(
        NetworkConfig(n, engine="fast", fault_plan=FaultPlan.empty(n))
    )
    plain, empty = interleaved_samples(
        [
            lambda: plain_net.route_batch(a, mat),
            lambda: empty_net.route_batch(a, mat),
        ]
    )
    plain_s, empty_s = min(plain), min(empty)
    fault_overhead = paired_overhead(plain, empty)
    assert fault_overhead < 0.03, (
        f"empty FaultPlan overhead {fault_overhead:.1%} on batch routing "
        "(need < 3%)"
    )
    results["faults"] = {
        "n": n,
        "frames": frames,
        "plain_batch_ms": round(plain_s * 1e3, 4),
        "empty_plan_batch_ms": round(empty_s * 1e3, 4),
        "empty_plan_overhead": round(fault_overhead, 4),
    }

    # -- n = 1024 batch: warm/cold route_batch on one thread, the
    # default scripts/check_bench_regression.py gate.  The payload
    # matrix is *numeric* (int64), so the gather runs as np.take.
    # Cold-cache timings clear the plan cache every repeat (the compile
    # dominates); warm timings measure routing alone.  p50/p95 ride
    # along so compile jitter stays visible next to min-of-k.
    pn, pframes = 1024, 64
    pa = random_multicast(pn, load=1.0, seed=pn)
    pmat = np.arange(pframes * pn, dtype=np.int64).reshape(pframes, pn)
    net = BRSMN(NetworkConfig(pn, engine="fast"))
    warm = timing_stats(lambda: net.route_batch(pa, pmat), k=7, warmup=2)

    def cold():
        net.plan_cache.clear()
        net.route_batch(pa, pmat)

    cold_t = timing_stats(cold, k=5, warmup=1)
    results["batch_1024"] = batch_1024 = {
        "n": pn,
        "frames": pframes,
        "cpu_count": os.cpu_count(),
        "warm_batch_ms": round(warm["min_s"] * 1e3, 4),
        "warm_p50_ms": round(warm["p50_s"] * 1e3, 4),
        "warm_p95_ms": round(warm["p95_s"] * 1e3, 4),
        "warm_frames_per_s": round(pframes / max(warm["min_s"], 1e-9), 1),
        "cold_batch_ms": round(cold_t["min_s"] * 1e3, 4),
        "cold_p50_ms": round(cold_t["p50_s"] * 1e3, 4),
        "cold_p95_ms": round(cold_t["p95_s"] * 1e3, 4),
        "cold_frames_per_s": round(pframes / max(cold_t["min_s"], 1e-9), 1),
    }

    # -- cluster tier: K replicas behind plan-affinity placement.  The
    # rendezvous hash and lifecycle bookkeeping are per-frame overhead
    # on top of one fabric, so warm frames/s is measured per replica
    # count on the same cycled frame pool.  The figure of merit is the
    # warm plan-cache hit rate: every fingerprint re-homes to exactly
    # one replica, so the cluster-wide rate must stay at the
    # single-fabric 100% instead of degrading by 1/K.
    from repro.cluster import ClusterConfig, FabricCluster

    cn, cframes, cdistinct = 256, 64, 8
    cpool = [
        random_multicast(cn, load=1.0, seed=cn + i) for i in range(cdistinct)
    ]
    csequence = [cpool[i % cdistinct] for i in range(cframes)]
    cluster_section = {
        "n": cn,
        "frames": cframes,
        "distinct_plans": cdistinct,
        "replicas": [],
    }
    for count in (1, 2, 4):
        cl = FabricCluster(
            ClusterConfig(
                replicas=count,
                network=NetworkConfig(cn, engine="fast"),
                placement_seed=cn,
            )
        )
        for a in csequence:  # compile every plan on its home replica
            cl.submit(a)
        hits0 = cl.stats.plan_cache_hits
        misses0 = cl.stats.plan_cache_misses
        warm = timing_stats(
            lambda: [cl.submit(a) for a in csequence], k=5, warmup=1
        )
        hits = cl.stats.plan_cache_hits - hits0
        misses = cl.stats.plan_cache_misses - misses0
        cl.close()
        warm_rate = hits / max(hits + misses, 1)
        assert warm_rate == 1.0, (
            f"plan affinity broken: warm hit rate {warm_rate:.4f} at "
            f"{count} replicas (placement must keep the single-fabric "
            "100% warm rate)"
        )
        cluster_section["replicas"].append(
            {
                "replicas": count,
                "warm_batch_ms": round(warm["min_s"] * 1e3, 4),
                "warm_p50_ms": round(warm["p50_s"] * 1e3, 4),
                "warm_p95_ms": round(warm["p95_s"] * 1e3, 4),
                "warm_frames_per_s": round(
                    cframes / max(warm["min_s"], 1e-9), 1
                ),
                "warm_hit_rate": round(warm_rate, 4),
            }
        )
    results["cluster"] = cluster_section

    # -- warm restore: a snapshot's plans compiled in one batched call
    restore = results["restore"] = restore_section()
    assert restore["speedup"] >= 5.0, (
        f"batched restore only {restore['speedup']:.1f}x faster than one "
        "compile per plan (need >= 5x)"
    )

    write_artifact(
        "fast_engine",
        "Compiled gather-plan engine vs reference per-switch simulation\n"
        "(end-to-end BRSMN frame, random multicast at load 1.0;\n"
        "min-of-k timing with warmup, plan cache warm)\n\n"
        + format_table(
            ["n", "reference ms", "fast ms", "plan compile ms", "speedup"], rows
        )
        + "\n\nBatched frames (n = {n}, {f} frames, one shared assignment):\n"
          "  batch      {b:.3f} ms ({t:.0f} frames/s)\n"
          "  sequential {s:.3f} ms\n"
          "  batch speedup {x:.1f}x\n"
          "  NullSink observer overhead {o:.1%} (bar: < 5%)\n"
          "  empty FaultPlan overhead {e:.1%} (bar: < 3%)".format(
            n=n,
            f=frames,
            b=results["batch"]["batch_ms"],
            t=results["batch"]["batch_frames_per_s"],
            s=results["batch"]["sequential_ms"],
            x=results["batch"]["batch_speedup"],
            o=results["observer"]["nullsink_overhead"],
            e=results["faults"]["empty_plan_overhead"],
        )
        + "\n\nBatch at n = {n} ({f} int64 frames/batch, one thread, "
          "{c} CPU core(s) visible):\n".format(
            n=pn, f=pframes, c=batch_1024["cpu_count"]
        )
        + format_table(
            ["warm ms (min/p50/p95)", "warm frames/s",
             "cold ms (min/p50/p95)", "cold frames/s"],
            [
                [
                    "{0:.2f}/{1:.2f}/{2:.2f}".format(
                        batch_1024["warm_batch_ms"],
                        batch_1024["warm_p50_ms"],
                        batch_1024["warm_p95_ms"],
                    ),
                    f"{batch_1024['warm_frames_per_s']:.0f}",
                    "{0:.2f}/{1:.2f}/{2:.2f}".format(
                        batch_1024["cold_batch_ms"],
                        batch_1024["cold_p50_ms"],
                        batch_1024["cold_p95_ms"],
                    ),
                    f"{batch_1024['cold_frames_per_s']:.0f}",
                ]
            ],
        )
        + "\n\nCluster tier (n = {n}, {f} frames/campaign, {d} distinct "
          "plans, rendezvous placement):\n".format(
            n=cn, f=cframes, d=cdistinct
        )
        + format_table(
            ["replicas", "warm ms (min/p50/p95)", "warm frames/s",
             "warm hit rate"],
            [
                [
                    r["replicas"],
                    "{0:.2f}/{1:.2f}/{2:.2f}".format(
                        r["warm_batch_ms"], r["warm_p50_ms"], r["warm_p95_ms"]
                    ),
                    f"{r['warm_frames_per_s']:.0f}",
                    f"{r['warm_hit_rate']:.0%}",
                ]
                for r in cluster_section["replicas"]
            ],
        )
        + "\n  plan affinity keeps the warm hit rate at the "
          "single-fabric 100% at every replica count"
        + "\n\nWarm restore (n = {n}, {p} plans, {f}-fault stuck/dead "
          "plan):\n"
          "  one compile per plan {c:.2f} ms\n"
          "  FabricSnapshot.restore {r:.2f} ms ({x:.1f}x, bar: >= 5x)".format(
            n=restore["n"],
            p=restore["plans"],
            f=restore["faults"],
            c=restore["sequential_compile_ms"],
            r=restore["restore_ms"],
            x=restore["speedup"],
        ),
    )
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")

    res = benchmark(fast_net.route, a)
    assert verify_result(res).ok


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("n", [256, 1024])
def test_brsmn_head_to_head(benchmark, engine, n):
    net = BRSMN(NetworkConfig(n, engine=engine))
    a = random_multicast(n, load=1.0, seed=n)
    net.route(a)  # warm the plan cache and interpreter caches
    res = benchmark(net.route, a)
    assert len(res.delivered) > 0


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("n", [256, 1024])
def test_bitsort_head_to_head(benchmark, engine, n):
    cells = cells_from_tags(_binary_tags(n, n))
    if engine == "reference":
        out = benchmark(route_to_compact, cells, n // 2, lambda t: t is Tag.ONE)
    else:
        out = benchmark(fast_sort_cells, cells, n // 2, (Tag.ONE,))
    assert len(out) == n


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_quasisort_head_to_head(benchmark, engine):
    n = 1024
    rng = random.Random(5)
    half = n // 2
    n0 = rng.randint(0, half)
    n1 = rng.randint(0, half)
    tags = [Tag.ZERO] * n0 + [Tag.ONE] * n1 + [Tag.EPS] * (n - n0 - n1)
    rng.shuffle(tags)
    cells = cells_from_tags(tags)
    fn = quasisort if engine == "reference" else fast_quasisort
    out = benchmark(fn, cells)
    assert all(c.tag in (Tag.ZERO, Tag.EPS) for c in out[: n // 2])
