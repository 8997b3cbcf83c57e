"""Sharded batch routing: bounds, parity, merge determinism."""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assignments, make_random_assignment
from repro.core.fastplan import compile_frame_plan
from repro.obs.events import Observer
from repro.parallel import ShardedBatchRouter, WorkerPool, shard_bounds


@given(
    batch=st.integers(min_value=0, max_value=500),
    workers=st.integers(min_value=1, max_value=16),
)
def test_shard_bounds_partition_the_batch(batch, workers):
    bounds = shard_bounds(batch, workers)
    assert len(bounds) == min(workers, batch)
    # Contiguous, ordered, covering [0, batch) exactly.
    expect = 0
    for lo, hi in bounds:
        assert lo == expect
        assert hi > lo
        expect = hi
    assert expect == batch
    # Balanced: shard sizes differ by at most one row.
    if bounds:
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


def test_shard_bounds_are_deterministic_and_validated():
    assert shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert shard_bounds(2, 8) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        shard_bounds(-1, 4)
    with pytest.raises(ValueError):
        shard_bounds(10, 0)


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(4)
    yield p
    p.shutdown()


@settings(max_examples=25, deadline=None)
@given(a=assignments(min_m=2, max_m=5), seed=st.integers(0, 2**16))
def test_sharded_matches_sequential_numeric(a, seed, pool):
    plan = compile_frame_plan(a)
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 40))
    mat = rng.integers(0, 2**31, size=(batch, a.n))
    sequential = plan.apply_batch(mat)
    sharded = ShardedBatchRouter(pool).apply(plan, mat)
    assert sharded.dtype == sequential.dtype
    assert np.array_equal(sharded, sequential)


def test_sharded_matches_sequential_object(pool):
    a = make_random_assignment(32, random.Random(7))
    plan = compile_frame_plan(a)
    mat = np.asarray(
        [[f"m{r}.{c}" for c in range(32)] for r in range(13)], dtype=object
    )
    sequential = plan.apply_batch(mat)
    sharded = ShardedBatchRouter(pool).apply(plan, mat)
    assert sharded.dtype == object
    assert np.array_equal(sharded, sequential)


def test_small_batches_route_inline(pool):
    a = make_random_assignment(8, random.Random(8))
    plan = compile_frame_plan(a)
    one = np.arange(8).reshape(1, 8)
    assert np.array_equal(
        ShardedBatchRouter(pool).apply(plan, one), plan.apply_batch(one)
    )
    empty = np.empty((0, 8), dtype=np.int64)
    assert ShardedBatchRouter(pool).apply(plan, empty).shape == (0, 8)


def test_shard_failure_propagates(pool):
    class ExplodingPlan:
        delivery_src = np.arange(16)

        def apply_batch(self, mat, attempt=0):
            raise RuntimeError("shard blew up")

    mat = np.zeros((64, 16))
    with pytest.raises(RuntimeError, match="shard blew up"):
        ShardedBatchRouter(pool).apply(ExplodingPlan(), mat)


def test_worker_events_carry_pool_fields():
    class Recorder(Observer):
        def __init__(self):
            self.events = []
            self._lock = threading.Lock()

        def on_event(self, event):
            with self._lock:
                self.events.append(event)

    obs = Recorder()
    plan = compile_frame_plan(make_random_assignment(16, random.Random(9)))
    with WorkerPool(2, observer=obs) as workers:
        ShardedBatchRouter(workers).apply(plan, np.zeros((8, 16)))
    events = [e for e in obs.events if e.stage == "parallel.workers"]
    assert sorted(e.kind for e in events) == ["done", "start"]
    for e in events:
        assert set(e.fields) == {"task", "workers", "busy"}
        assert (e.fields["task"], e.fields["workers"]) == ("shard", 2)
