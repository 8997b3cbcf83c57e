"""Batched restore equals the one-lookup-per-entry restore it replaced.

``FabricSnapshot.restore`` compiles every snapshotted assignment in one
:func:`~repro.core.fastplan.compile_frame_plans` call, then inserts the
plans in snapshot order through the plan cache's ordinary ``get``.
Each test restores the same snapshot into two fresh fabrics — one
through ``restore``, one through the old per-assignment ``_plan`` loop
— and demands the same event stream, counters, LRU order and plans.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import assert_same_plan, make_random_assignment
from repro import FabricSnapshot, MulticastFabric, NetworkConfig
from repro.core.fastplan import compile_frame_plan
from repro.core.multicast import MulticastAssignment
from repro.faults import FaultPlan
from repro.obs.events import Observer, emit


class _Recorder(Observer):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append((event.stage, event.kind, event.frame_id, event.fields))


def _restore_one_by_one(snap, fabric):
    """The restore loop before batching: one ``_plan`` lookup per entry."""
    warmed = 0
    if getattr(fabric.network, "plan_cache", None) is not None:
        for mapping in snap.assignments:
            fabric.network._plan(
                MulticastAssignment.from_dict(
                    snap.n, {int(k): v for k, v in mapping.items()}
                )
            )
            warmed += 1
    emit(fabric.observer, "resilience.snapshot", "snapshot_restored",
         plans=warmed)
    return warmed


def _snapshot(n, count, seed=0):
    rng = random.Random(seed)
    return FabricSnapshot(
        n=n,
        assignments=[
            {str(i): sorted(a[i]) for i in a.active_inputs}
            for a in (make_random_assignment(n, rng) for _ in range(count))
        ],
    )


def _restore_both(cfg, snap):
    """``(fabric, recorder, warmed)`` for the batched and the old path."""
    out = []
    for restore in (FabricSnapshot.restore, _restore_one_by_one):
        recorder = _Recorder()
        fabric = MulticastFabric(
            NetworkConfig(**{**cfg, "observer": recorder})
        )
        recorder.events.clear()
        out.append((fabric, recorder, restore(snap, fabric)))
    return out


def _cache_state(fabric):
    cache = fabric.network.plan_cache
    return (
        cache.hits,
        cache.misses,
        len(cache),
        [a.destinations for a in cache.snapshot_assignments()],
    )


def _assert_equivalent(cfg, snap):
    """Restore ``snap`` both ways and compare; returns the batched
    fabric (closed), its ``restore`` result and its event stream."""
    (batched, rec_b, warmed_b), (looped, rec_l, warmed_l) = _restore_both(
        cfg, snap
    )
    try:
        assert warmed_b == warmed_l
        assert rec_b.events == rec_l.events
        if looped.network.plan_cache is not None:
            assert _cache_state(batched) == _cache_state(looped)
            for a in looped.network.plan_cache.snapshot_assignments():
                plan_b, hit_b = batched.network._plan(a)
                plan_l, hit_l = looped.network._plan(a)
                assert hit_b and hit_l
                assert_same_plan(plan_b, plan_l)
        return batched, warmed_b, rec_b.events
    finally:
        batched.close()
        looped.close()


def test_cache_smaller_than_snapshot_keeps_lru_order_and_evictions():
    cfg = dict(n=16, engine="fast", plan_cache_size=3)
    _, warmed, events = _assert_equivalent(cfg, _snapshot(16, 8, seed=1))
    assert warmed == 8
    assert [e[1] for e in events].count("evict") == 5


def test_hand_written_document_with_duplicates():
    a, b, c = _snapshot(16, 3, seed=2).assignments
    doc = json.dumps(
        {
            "kind": "fabric_snapshot",
            "version": 2,
            "n": 16,
            "assignments": [a, b, a, c, b, a],
        }
    )
    snap = FabricSnapshot.from_json(doc)
    for size in (2, 8):
        _assert_equivalent(dict(n=16, engine="fast", plan_cache_size=size), snap)


def test_faulted_fabric_plans_equal_faulted_singles():
    plan = FaultPlan.random(16, faults=4, seed=1)
    cfg = dict(n=16, engine="fast", fault_plan=plan)
    snap = _snapshot(16, 6, seed=4)
    fabric, _, _ = _assert_equivalent(cfg, snap)
    for a in fabric.network.plan_cache.snapshot_assignments():
        got, hit = fabric.network._plan(a)
        assert hit
        assert_same_plan(got, compile_frame_plan(a, fault_plan=plan))


def test_reference_engine_fabric_warms_nothing():
    cfg = dict(n=16, engine="reference")
    _, warmed, _ = _assert_equivalent(cfg, _snapshot(16, 4, seed=5))
    assert warmed == 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_empty_snapshot(engine):
    _assert_equivalent(dict(n=16, engine=engine), FabricSnapshot(n=16))
