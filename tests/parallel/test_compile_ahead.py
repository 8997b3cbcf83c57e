"""Compile-ahead pipeline: enqueue, drop, drain, coalescing."""

from __future__ import annotations

import random
import threading
import time

import pytest

from conftest import make_random_assignment
from repro.core.fastplan import compile_frame_plan
from repro.obs.events import Observer
from repro.parallel import CompileAheadPipeline, ConcurrentPlanCache, WorkerPool


class ParallelRecorder(Observer):
    def __init__(self):
        self.parallel = []
        self._lock = threading.Lock()

    def on_event(self, event):
        if event.stage in ("parallel.workers", "parallel.pipeline"):
            with self._lock:
                self.parallel.append(event)


def assignment(seed, n=16):
    return make_random_assignment(n, random.Random(seed))


def test_prefetch_warms_the_cache():
    cache = ConcurrentPlanCache(maxsize=8)
    with WorkerPool(2) as pool:
        pipe = CompileAheadPipeline(cache, pool, depth=2)
        a = assignment(1)
        assert pipe.prefetch(a) is True
        pipe.drain()
        assert cache.contains(a)
        assert pipe.queue_depth == 0
        # Routing now hits without compiling.
        _, hit = cache.get(a)
        assert hit is True
        # A warm assignment is not re-enqueued.
        assert pipe.prefetch(a) is False
        assert pipe.prefetches == 1


def test_full_queue_drops_instead_of_blocking():
    cache = ConcurrentPlanCache(maxsize=16)
    release = threading.Event()

    def slow_compile(asg):
        assert release.wait(timeout=10)
        return compile_frame_plan(asg)

    obs = ParallelRecorder()
    with WorkerPool(1, observer=obs) as pool:
        pipe = CompileAheadPipeline(
            cache, pool, depth=2, compile_fn=slow_compile, observer=obs
        )
        assert pipe.prefetch(assignment(2)) is True
        assert pipe.prefetch(assignment(3)) is True
        assert pipe.queue_depth == 2
        # Queue full: further prefetches are dropped, not queued.
        assert pipe.prefetch(assignment(4)) is False
        assert pipe.drops == 1
        release.set()
        pipe.drain()
        assert pipe.queue_depth == 0
        assert not cache.contains(assignment(4))
        actions = [
            e.kind for e in obs.parallel if e.fields["task"] == "compile"
        ]
        assert actions.count("enqueue") == 2
        assert actions.count("drop") == 1
        # The pipeline registered itself as the pool's depth source.
        starts = [e for e in obs.parallel if e.kind == "start"]
        assert starts and all(e.fields["workers"] == 1 for e in starts)


def test_routing_thread_coalesces_onto_prefetch():
    cache = ConcurrentPlanCache(maxsize=8)
    entered = threading.Event()
    release = threading.Event()

    def slow_compile(asg):
        entered.set()
        assert release.wait(timeout=10)
        return compile_frame_plan(asg)

    with WorkerPool(1) as pool:
        pipe = CompileAheadPipeline(cache, pool, depth=2, compile_fn=slow_compile)
        a = assignment(5)
        assert pipe.prefetch(a) is True
        assert entered.wait(timeout=10)
        # The "routing thread" looks the plan up mid-prefetch: it must
        # wait on the in-flight compile (hit=True), not compile again.
        got = []
        t = threading.Thread(target=lambda: got.append(cache.get(a)))
        t.start()
        deadline = time.monotonic() + 10
        while cache.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t.join(timeout=10)
        pipe.drain()
        assert got[0][1] is True
        assert cache.misses == 1
        assert cache.coalesced == 1


def test_failed_prefetch_never_sinks_the_run():
    cache = ConcurrentPlanCache(maxsize=8)

    def failing_compile(asg):
        raise RuntimeError("bad assignment")

    with WorkerPool(1) as pool:
        pipe = CompileAheadPipeline(
            cache, pool, depth=2, compile_fn=failing_compile
        )
        a = assignment(6)
        assert pipe.prefetch(a) is True
        pipe.drain()  # swallows the failure
        assert pipe.queue_depth == 0
        assert not cache.contains(a)
        # The routing thread's own lookup surfaces the real error.
        with pytest.raises(RuntimeError, match="bad assignment"):
            cache.get(a, failing_compile)


def test_depth_validation():
    cache = ConcurrentPlanCache(maxsize=8)
    with WorkerPool(1) as pool:
        with pytest.raises(ValueError):
            CompileAheadPipeline(cache, pool, depth=0)
