"""FabricSnapshot: warm-restart round trips for plans and health."""

import json
import random

import pytest

from conftest import make_random_assignment
from repro import (
    FabricSnapshot,
    MulticastFabric,
    NetworkConfig,
)
from repro.faults import FaultPlan
from repro.faults.health import PlaneState


def _frames(n, count, seed=0):
    rng = random.Random(seed)
    return [make_random_assignment(n, rng) for _ in range(count)]


class TestPlanCacheWarmth:
    def test_restore_warms_the_plan_cache(self):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 6, seed=1)
        fab.run(frames)
        snap = fab.snapshot()
        assert snap.n == 16
        assert len(snap.assignments) == 6

        fab2 = MulticastFabric(cfg)
        warmed = fab2.restore(snap)
        assert warmed == 6
        # The warmed cache serves the same frames without a compile.
        fab2.run(frames)
        assert fab2.stats.plan_cache_misses == 0
        assert fab2.stats.plan_cache_hits > 0
        fab.close()
        fab2.close()

    def test_restored_deliveries_match(self):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 4, seed=2)
        originals = [fab.submit(f) for f in frames]
        snap = fab.snapshot()
        fab2 = MulticastFabric(cfg)
        fab2.restore(snap)
        for frame, original in zip(frames, originals):
            again = fab2.submit(frame)
            assert [
                None if m is None else (m.source, m.payload)
                for m in again.outputs
            ] == [
                None if m is None else (m.source, m.payload)
                for m in original.outputs
            ]
        fab.close()
        fab2.close()

    def test_reference_engine_snapshots_are_empty_but_valid(self):
        cfg = NetworkConfig(8, engine="reference")
        fab = MulticastFabric(cfg)
        fab.run(_frames(8, 3, seed=3))
        snap = fab.snapshot()
        assert snap.assignments == []
        fab2 = MulticastFabric(cfg)
        assert fab2.restore(snap) == 0


class TestHealth:
    def test_quarantine_survives_restart(self):
        plan = FaultPlan.random(16, faults=4, seed=7)
        cfg = NetworkConfig(16, engine="fast", fault_plan=plan)
        fab = MulticastFabric(cfg, strict=False)
        for f in _frames(16, 40, seed=4):
            fab.submit(f)
        assert fab.stats.quarantines > 0
        snap = fab.snapshot()
        assert snap.health is not None

        fab2 = MulticastFabric(cfg, strict=False)
        assert fab2.health.state is PlaneState.HEALTHY
        fab2.restore(snap)
        assert fab2.health.state is fab.health.state
        assert fab2.health.snapshot() == fab.health.snapshot()
        fab.close()
        fab2.close()


class TestJsonFormat:
    def test_round_trip_through_json_and_disk(self, tmp_path):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        fab.run(_frames(16, 3, seed=5))
        snap = fab.snapshot()

        again = FabricSnapshot.from_json(snap.to_json())
        assert again.n == snap.n
        assert again.assignments == snap.assignments

        path = tmp_path / "fabric.json"
        snap.save(str(path))
        loaded = FabricSnapshot.load(str(path))
        assert loaded.assignments == snap.assignments
        fab.close()

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(ValueError, match="fabric_snapshot"):
            FabricSnapshot.from_json('{"kind": "assignment", "n": 8}')
        with pytest.raises(ValueError, match="version"):
            FabricSnapshot.from_json(
                '{"kind": "fabric_snapshot", "version": 99, "n": 8}'
            )
        # Version 1 carried breaker state; it is refused, not migrated.
        doc = json.loads(FabricSnapshot(n=8).to_json())
        doc.update(version=1, breaker=None)
        with pytest.raises(ValueError, match="unsupported snapshot version 1"):
            FabricSnapshot.from_json(json.dumps(doc))

    def test_size_mismatch_refused(self):
        snap = FabricSnapshot(n=32)
        fab = MulticastFabric(NetworkConfig(16, engine="fast"))
        with pytest.raises(ValueError, match="n=32"):
            fab.restore(snap)
        fab.close()

    def test_restore_recompiles_under_the_new_fault_plan(self):
        """Plans are recompiled by the restoring fabric's own compiler,
        so a different fault plan yields that plan's (different)
        behaviour, not stale healthy-plane plans."""
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 2, seed=6)
        fab.run(frames)
        snap = fab.snapshot()

        faulted = NetworkConfig(
            16, engine="fast", fault_plan=FaultPlan.random(16, faults=3, seed=2)
        )
        fab2 = MulticastFabric(faulted, strict=False)
        warmed = fab2.restore(snap)
        assert warmed == len(snap.assignments)
        # The warmed fabric still routes through its healing layer.
        result = fab2.submit(frames[0])
        assert hasattr(result, "outcomes")
        fab.close()
        fab2.close()


class TestSnapshotPathAutoPersistence:
    """``NetworkConfig(snapshot_path=...)``: close() persists, the next
    constructor warm-restores — no explicit snapshot calls."""

    def test_close_writes_and_reopen_restores(self, tmp_path):
        path = tmp_path / "state" / "fabric.json"
        cfg = NetworkConfig(16, engine="fast", snapshot_path=str(path))
        frames = _frames(16, 5, seed=3)

        fab = MulticastFabric(cfg)
        fab.run(frames)
        fab.close()
        assert path.exists()
        assert FabricSnapshot.load(str(path)).n == 16

        fab2 = MulticastFabric(cfg)
        try:
            fab2.run(frames)
            assert fab2.stats.plan_cache_misses == 0
            assert fab2.stats.plan_cache_hits > 0
        finally:
            fab2.close()

    def test_missing_file_starts_cold(self, tmp_path):
        cfg = NetworkConfig(
            16, engine="fast", snapshot_path=str(tmp_path / "absent.json")
        )
        fab = MulticastFabric(cfg)
        try:
            fab.run(_frames(16, 2, seed=4))
            assert fab.stats.plan_cache_misses > 0
        finally:
            fab.close()

    def test_non_string_path_rejected_by_name(self):
        with pytest.raises(ValueError, match="snapshot_path"):
            NetworkConfig(16, snapshot_path=7)
