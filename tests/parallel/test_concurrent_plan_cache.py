"""ConcurrentPlanCache: striping, single-flight, events, fault keys."""

from __future__ import annotations

import random
import threading

import pytest

import time

from conftest import make_random_assignment
from repro.core.fastplan import PlanCache, compile_frame_plan
from repro.obs.events import Observer
from repro.parallel import ConcurrentPlanCache


class Recorder(Observer):
    """Collects cache events (thread-safely) for assertions."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def on_event(self, event):
        if event.stage == "fastplan.plan_cache":
            with self._lock:
                self.events.append(event)

    def kinds(self):
        return [e.kind for e in self.events]


def assignment(n=16, seed=0):
    return make_random_assignment(n, random.Random(seed))


class TestSingleFlight:
    def test_concurrent_misses_compile_exactly_once(self):
        cache = ConcurrentPlanCache(maxsize=8)
        a = assignment(seed=1)
        entered = threading.Event()
        release = threading.Event()
        compiles = []

        def slow_compile(asg):
            entered.set()
            assert release.wait(timeout=10)
            compiles.append(threading.get_ident())
            return compile_frame_plan(asg)

        results = []

        def worker():
            results.append(cache.get(a, slow_compile))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        # The leader is parked inside slow_compile; hold it there until
        # the other 7 lookups have coalesced onto its in-flight future
        # (the coalesced counter is bumped before a waiter parks).
        assert entered.wait(timeout=10)
        deadline = time.monotonic() + 10
        while cache.coalesced < 7 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10)

        assert len(compiles) == 1
        assert cache.misses == 1
        assert cache.coalesced == 7
        plans = {id(plan) for plan, _ in results}
        assert len(plans) == 1
        # The one leader reports a miss, every waiter reports a hit.
        assert sorted(hit for _, hit in results) == [False] + [True] * 7

    def test_coalesced_waiters_reraise_leader_failure_then_retry(self):
        cache = ConcurrentPlanCache(maxsize=8)
        a = assignment(seed=2)
        entered = threading.Event()
        release = threading.Event()

        def failing_compile(asg):
            entered.set()
            assert release.wait(timeout=5)
            raise RuntimeError("compile exploded")

        errors = []

        def leader():
            try:
                cache.get(a, failing_compile)
            except RuntimeError as exc:
                errors.append(str(exc))

        def waiter():
            assert entered.wait(timeout=5)
            try:
                cache.get(a, failing_compile)
            except RuntimeError as exc:
                errors.append(str(exc))

        t1 = threading.Thread(target=leader)
        t2 = threading.Thread(target=waiter)
        t1.start()
        t2.start()
        assert entered.wait(timeout=5)
        # Let the waiter coalesce onto the in-flight future, then fail.
        deadline = time.monotonic() + 10
        while cache.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)

        assert errors == ["compile exploded", "compile exploded"]
        assert not cache.contains(a)
        # The key was left uncached: a later lookup retries the compile.
        plan, hit = cache.get(a)
        assert hit is False
        assert cache.contains(a)

    def test_contains_counts_inflight_compiles(self):
        cache = ConcurrentPlanCache(maxsize=8)
        a = assignment(seed=3)
        started = threading.Event()
        release = threading.Event()

        def slow_compile(asg):
            started.set()
            assert release.wait(timeout=5)
            return compile_frame_plan(asg)

        t = threading.Thread(target=lambda: cache.get(a, slow_compile))
        t.start()
        assert started.wait(timeout=5)
        assert cache.contains(a)  # in flight, not yet inserted
        assert len(cache) == 0
        release.set()
        t.join(timeout=5)
        assert cache.contains(a)
        assert len(cache) == 1


class TestCacheSemantics:
    def test_hit_miss_counters_and_event_order(self):
        obs = Recorder()
        # stripes=1: with multiple stripes the per-stripe quota is
        # ceil(8/stripes), and whether two keys share a stripe depends
        # on randomised string hashing — a single stripe makes the
        # event stream deterministic.
        cache = ConcurrentPlanCache(maxsize=8, observer=obs, stripes=1)
        a, b = assignment(seed=4), assignment(seed=5)
        _, hit = cache.get(a)
        assert hit is False
        _, hit = cache.get(a)
        assert hit is True
        cache.get(b)
        assert (cache.hits, cache.misses, cache.coalesced) == (1, 2, 0)
        assert cache.hit_rate == pytest.approx(1 / 3)
        assert obs.kinds() == ["miss", "hit", "miss"]
        # Miss events snapshot the pre-insert size, hits the current.
        assert [e.fields["size"] for e in obs.events] == [0, 1, 1]

    def test_lru_eviction_within_stripe(self):
        obs = Recorder()
        cache = ConcurrentPlanCache(maxsize=2, observer=obs, stripes=1)
        a, b, c = (assignment(seed=s) for s in (6, 7, 8))
        cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a; b is now LRU
        cache.get(c)  # evicts b
        assert len(cache) == 2
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)
        assert obs.kinds() == ["miss", "miss", "hit", "miss", "evict"]
        assert obs.events[-1].fields["key"] == PlanCache.make_key(b)

    def test_total_capacity_is_bounded(self):
        cache = ConcurrentPlanCache(maxsize=8, stripes=4)
        for seed in range(40):
            cache.get(assignment(seed=seed))
        # Per-stripe quota is ceil(8/4) = 2; total never exceeds
        # quota * stripes even under a skewed key distribution.
        assert len(cache) <= 8

    def test_clear_resets_everything(self):
        obs = Recorder()
        cache = ConcurrentPlanCache(maxsize=8, observer=obs)
        cache.get(assignment(seed=9))
        cache.get(assignment(seed=9))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.coalesced) == (0, 0, 0)
        assert obs.kinds()[-1] == "clear"

    def test_validation(self):
        with pytest.raises(ValueError):
            ConcurrentPlanCache(maxsize=0)
        with pytest.raises(ValueError):
            ConcurrentPlanCache(maxsize=4, stripes=0)

    def test_share_keys_with_sequential_cache(self):
        a = assignment(seed=10)
        assert ConcurrentPlanCache.make_key(a) == PlanCache.make_key(a)
        assert ConcurrentPlanCache.make_key(a, "fp") == PlanCache.make_key(
            a, "fp"
        )


class TestFaultKeysUnderEviction:
    """`fingerprint@plan` keys stay correct under concurrent eviction."""

    def test_healthy_and_faulted_plans_never_collide(self):
        cache = ConcurrentPlanCache(maxsize=4, stripes=2)
        a = assignment(seed=11)
        stop = threading.Event()
        errors = []

        def churn(tid):
            # Keep the tiny cache constantly evicting.
            k = 0
            while not stop.is_set():
                cache.get(assignment(seed=100 + tid * 1000 + (k % 17)))
                k += 1

        def lookup():
            # Alternate healthy / faulted lookups of one assignment;
            # whatever evictions happen concurrently, each key must
            # always come back with its own plan.
            while not stop.is_set():
                healthy, _ = cache.get(a, lambda _: ("healthy", "plan"))
                faulted, _ = cache.get(
                    a, lambda _: ("faulted", "plan"), extra_key="deadbeef@1"
                )
                if healthy[0] != "healthy" or faulted[0] != "faulted":
                    errors.append((healthy, faulted))
                    return

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(3)
        ] + [threading.Thread(target=lookup) for _ in range(2)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in threads:
            t.join(timeout=10)
        timer.cancel()
        stop.set()
        assert errors == []
        assert len(cache) <= 4
