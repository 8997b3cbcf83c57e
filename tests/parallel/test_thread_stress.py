"""Concurrency stress: fast routers on separate threads sharing one
:class:`~repro.parallel.plan_cache.ConcurrentPlanCache` deliver exactly
what the reference engine delivers, and compile each plan once."""

from __future__ import annotations

import random
import threading

import numpy as np

from conftest import make_random_assignment
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.parallel import ConcurrentPlanCache


def test_eight_routers_sharing_one_cache_match_reference():
    n = 32
    frames = [
        make_random_assignment(n, random.Random(seed)) for seed in range(24)
    ]
    reference = BRSMN(NetworkConfig(n))
    expected = []
    for a in frames:
        outputs = reference.route(a).outputs
        expected.append(
            [(m.source, m.payload) if m is not None else None for m in outputs]
        )

    cache = ConcurrentPlanCache(maxsize=64)
    errors = []
    start = threading.Barrier(8)

    def router(tid):
        # Each thread owns a network but they all share one cache, so
        # plan compilation is a cross-thread rendezvous on every frame.
        net = BRSMN(NetworkConfig(n, engine="fast"), plan_cache=cache)
        start.wait(timeout=10)
        for k, a in enumerate(frames):
            got = [
                (m.source, m.payload) if m is not None else None
                for m in net.route(a).outputs
            ]
            if got != expected[k]:
                errors.append((tid, k))
                return

    threads = [threading.Thread(target=router, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    # Single-flight: 8 threads x 24 frames but at most one compile per
    # distinct assignment; every other lookup hit or coalesced.
    assert cache.misses <= len(frames)
    assert cache.hits + cache.coalesced == 8 * len(frames) - cache.misses


def test_concurrent_batch_routers_share_a_cache():
    n = 16
    a = make_random_assignment(n, random.Random(99))
    cache = ConcurrentPlanCache(maxsize=8)
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 2**31, size=(50, n))
    baseline = BRSMN(NetworkConfig(n, engine="fast")).route_batch(a, mat)
    outcomes = []

    def worker():
        net = BRSMN(NetworkConfig(n, engine="fast"), plan_cache=cache)
        outcomes.append(net.route_batch(a, mat))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(outcomes) == 8
    for result in outcomes:
        assert np.array_equal(result.payloads, baseline.payloads)
    assert cache.misses == 1  # one shared plan, compiled exactly once
