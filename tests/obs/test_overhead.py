"""Pay-for-what-you-use: a NullSink must not slow the fast engine down.

The strict 5% acceptance bar lives in ``benchmarks/bench_fast_engine.py``
where min-of-k timing on a large batch keeps noise down; this unit test
asserts the same property with a generous margin so it stays reliable
on loaded CI machines, plus the structural facts that make the bar
achievable (the gate short-circuits before any event is built).
"""

import time

import numpy as np

from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.obs import NullSink, Observer
from repro.workloads.random_assignments import random_multicast


def _interleaved_min_of_k(fns, k=7, warmup=2):
    """Min-of-k seconds of each of ``fns``, sampled in turn so a load
    burst on a shared host slows every side alike, not just one."""
    for _ in range(warmup):
        for fn in fns:
            fn()
    best = [float("inf")] * len(fns)
    for _ in range(k):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


class TestNullSinkOverhead:
    def test_batch_routing_overhead_bounded(self):
        n, frames = 128, 32
        a = random_multicast(n, load=1.0, seed=9)
        mat = np.arange(frames * n).reshape(frames, n).astype(object)
        bare = BRSMN(NetworkConfig(n, engine="fast"))
        sunk = BRSMN(NetworkConfig(n, engine="fast", observer=NullSink()))
        bare_s, sunk_s = _interleaved_min_of_k(
            [lambda: bare.route_batch(a, mat), lambda: sunk.route_batch(a, mat)]
        )
        # 50% margin: the benchmark owns the 5% bar; here we only guard
        # against accidentally emitting events through a disabled sink.
        assert sunk_s < bare_s * 1.5, (
            f"NullSink batch routing {sunk_s / bare_s - 1:.0%} slower"
        )

    def test_disabled_observer_sees_no_events(self):
        class Recording(NullSink):
            """Disabled observer that would notice any emission."""

            def __init__(self):
                self.called = False

            def on_event(self, event):
                self.called = True

        rec = Recording()
        net = BRSMN(NetworkConfig(16, engine="fast", observer=rec))
        a = random_multicast(16, load=1.0, seed=1)
        net.route(a)
        net.route_batch(a, np.arange(3 * 16).reshape(3, 16).astype(object))
        assert rec.called is False

    def test_enabled_base_observer_costs_only_dispatch(self):
        """An enabled no-op Observer routes correctly (sanity, not perf)."""
        net = BRSMN(NetworkConfig(16, engine="fast", observer=Observer()))
        a = random_multicast(16, load=1.0, seed=2)
        assert net.route(a).delivered
