"""Snapshots must warm-restore across worker counts.

A snapshot captures *assignments*, not compiled plans, so nothing
backend-specific should leak into the document.  ``workers=1`` caches
plans in a :class:`~repro.core.fastplan.PlanCache` on the calling
thread; ``workers=2`` in a
:class:`~repro.parallel.plan_cache.ConcurrentPlanCache` behind a
thread pool.  A fleet can snapshot under one and warm-restore into the
other (or back) during a rolling resize.  These pin it, including the
constructor's ``snapshot_path`` auto-restore path and the
health/breaker state transfer.
"""

import random

import pytest

from repro import (
    BreakerPolicy,
    FabricSnapshot,
    MulticastFabric,
    NetworkConfig,
)
from repro.faults import FaultKind, FaultPlan
from repro.faults.health import PlaneState

from conftest import make_random_assignment

pytestmark = pytest.mark.parametrize(
    "src_workers,dst_workers", [(1, 2), (2, 1)]
)


def cfg(workers, **kw):
    return NetworkConfig(16, engine="fast", workers=workers, **kw)


def frames(count=10, distinct=4, seed=0):
    rng = random.Random(seed)
    pool = [make_random_assignment(16, rng) for _ in range(distinct)]
    return [pool[i % distinct] for i in range(count)]


class TestCrossExecutorRestore:
    def test_plan_cache_round_trip(self, src_workers, dst_workers):
        src = MulticastFabric(cfg(src_workers))
        for a in frames():
            src.submit(a)
        snap = FabricSnapshot.capture(src)
        src.close()
        assert snap.assignments

        dst = MulticastFabric(cfg(dst_workers))
        warmed = snap.restore(dst)
        assert warmed == len(snap.assignments)
        for a in frames():
            dst.submit(a)
        assert dst.stats.plan_cache_misses == 0
        assert dst.stats.plan_cache_hits == 10
        dst.close()

    def test_snapshot_path_auto_restore(
        self, src_workers, dst_workers, tmp_path
    ):
        """close() persists under one worker count; the constructor
        warm restores under the other."""
        path = str(tmp_path / "snap.json")
        src = MulticastFabric(cfg(src_workers, snapshot_path=path))
        for a in frames():
            src.submit(a)
        src.close()

        dst = MulticastFabric(cfg(dst_workers, snapshot_path=path))
        for a in frames():
            dst.submit(a)
        assert dst.stats.plan_cache_misses == 0
        dst.close()

    def test_health_and_breaker_state_transfer(
        self, src_workers, dst_workers
    ):
        plan = FaultPlan.random(
            16, faults=2, seed=5, kinds=[FaultKind.STUCK_AT]
        )
        breaker = BreakerPolicy(failure_threshold=2, open_frames=50)
        src = MulticastFabric(
            cfg(src_workers, fault_plan=plan, breaker=breaker)
        )
        src.health.quarantine()
        snap = FabricSnapshot.capture(src)
        src.close()

        dst = MulticastFabric(
            cfg(dst_workers, fault_plan=plan, breaker=breaker)
        )
        snap.restore(dst)
        assert dst.health.state is PlaneState.QUARANTINED
        dst.close()

    def test_document_is_executor_agnostic(
        self, src_workers, dst_workers
    ):
        """The serialized document from either worker count is
        identical: nothing backend-specific may leak into the format."""
        fabrics = [
            MulticastFabric(cfg(src_workers)),
            MulticastFabric(cfg(dst_workers)),
        ]
        docs = []
        for fabric in fabrics:
            for a in frames():
                fabric.submit(a)
            docs.append(FabricSnapshot.capture(fabric).to_json())
            fabric.close()
        assert docs[0] == docs[1]
