"""The fabric's frame ledger and the warm path's per-frame work.

``FabricStats.fanout_histogram``, ``splits`` and ``switch_ops`` are
folded on read from a ledger of per-assignment frame counts; the
cluster's terminal totals are read from its replicas; the placement
order is memoised per epoch.  These tests pin that a warm frame does
none of that work (by counting calls, not by timing), and that the
folded totals equal an eager recount on every path a frame can take.
"""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.brsmn as brsmn_mod
import repro.core.fabric as fabric_mod
from repro import (
    ClusterConfig,
    FabricCluster,
    FaultPlan,
    MulticastFabric,
    NetworkConfig,
)
from repro.cluster.router import ClusterRouter
from repro.core.verification import VerificationReport
from repro.faults.health import HealthTracker

from conftest import make_random_assignment


def _boom(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} ran on a warm frame")

    return raise_


class TestNoPerFrameBookkeeping:
    def test_warm_cluster_frames_skip_every_recount(self, monkeypatch):
        cluster = FabricCluster(
            ClusterConfig(
                replicas=2,
                network=NetworkConfig(64, engine="fast"),
                placement_seed=3,
            )
        )
        rng = random.Random(11)
        pool = [make_random_assignment(64, rng) for _ in range(16)]
        for a in pool:
            cluster.submit(a)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Counter, "update", counted("Counter.update", Counter.update))
        monkeypatch.setattr(ClusterRouter, "_rank", _boom("ClusterRouter._rank"))
        monkeypatch.setattr(ClusterRouter, "_place", _boom("the state/impaired filter"))
        for name in ("plan_cache_hits", "plan_cache_misses", "total_splits", "switch_ops"):
            monkeypatch.setattr(
                brsmn_mod._PerFrameTotals, name, property(_boom(f"result.{name}"))
            )
        for i in range(1000):
            a = pool[rng.randrange(len(pool))]
            assert cluster.submit(a).delivered.keys() == a.inverse_map().keys()
        assert dict(calls) == {}
        monkeypatch.undo()
        stats = cluster.stats
        assert stats.frames == 1016
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1000, 16)
        cluster.close()


def _recount(pairs):
    """The eager totals: every result read as it came back."""
    histogram, splits, switch_ops = Counter(), 0, 0
    for assignment, result in pairs:
        histogram.update(assignment.fanout_counts())
        splits += result.total_splits
        switch_ops += result.switch_ops
    return histogram, splits, switch_ops


def _assert_folded(stats, pairs):
    histogram, splits, switch_ops = _recount(pairs)
    assert stats.fanout_histogram == histogram
    count = sum(histogram.values())
    mean = sum(f * c for f, c in histogram.items()) / count if count else 0.0
    assert stats.mean_fanout == mean
    assert (stats.splits, stats.switch_ops) == (splits, switch_ops)


@given(
    seed=st.integers(0, 2**16),
    engine=st.sampled_from(["reference", "fast"]),
    faults=st.sampled_from([0, 2]),
    strict=st.booleans(),
    distinct=st.integers(1, 14),
    frames=st.integers(1, 40),
    reset_at=st.one_of(st.none(), st.integers(0, 39)),
)
@settings(max_examples=40, deadline=None)
def test_folded_totals_equal_an_eager_recount(
    seed, engine, faults, strict, distinct, frames, reset_at
):
    n = 16
    rng = random.Random(seed)
    cfg = NetworkConfig(
        n,
        engine=engine,
        plan_cache_size=4,
        fault_plan=FaultPlan.random(n, faults=faults, seed=seed) if faults else None,
    )
    fabric = MulticastFabric(
        cfg,
        strict=strict,
        # Quarantine fast, so the standby plane serves frames too.
        health=HealthTracker(fail_threshold=1, quarantine_frames=2, probe_frames=1),
    )
    pool = [make_random_assignment(n, rng) for _ in range(distinct)]
    stream = [pool[rng.randrange(distinct)] for _ in range(frames)]
    verify = fabric_mod.verify_result
    submitted = [0]

    def flaky_verify(result):
        # Under strict=False every fifth frame "fails" verification:
        # it is still routed and counted.
        report = verify(result)
        submitted[0] += 1
        if not strict and submitted[0] % 5 == 0:
            return VerificationReport(False, ["injected"], report.deliveries)
        return report

    fabric_mod.verify_result = flaky_verify
    try:
        pairs = []
        for i, a in enumerate(stream):
            if i == reset_at:
                fabric.reset()
                pairs = []
            pairs.append((a, fabric.submit(a)))
            if i % 7 == 3:  # a read mid-stream folds; counting goes on
                _assert_folded(fabric.stats, pairs)
            assert len(fabric.stats._pending) <= cfg.plan_cache_size
    finally:
        fabric_mod.verify_result = verify
    _assert_folded(fabric.stats, pairs)
    assert fabric.stats.frames == len(pairs)
    if not strict and not faults and frames >= 5 and reset_at is None:
        assert any("injected" in f for f in fabric.stats.failures)
    # The ledger keeps fanout mappings, never an assignment.
    refs = [weakref.ref(a) for a in pool]
    del pool, stream, pairs, a
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    fabric.close()


def test_cold_stream_longer_than_the_cache_keeps_the_ledger_bounded():
    cfg = NetworkConfig(16, engine="fast", plan_cache_size=4)
    fabric = MulticastFabric(cfg)
    rng = random.Random(2)
    pairs = []
    for _ in range(50):
        a = make_random_assignment(16, rng)
        pairs.append((a, fabric.submit(a)))
        assert len(fabric.stats._pending) <= 4
    assert fabric.stats.plan_cache_misses > 4 * 4
    _assert_folded(fabric.stats, pairs)
    assert fabric.stats._pending == {}


def test_plan_fixed_totals_are_read_only():
    stats = MulticastFabric(8).stats
    with pytest.raises(AttributeError):
        stats.splits += 1
