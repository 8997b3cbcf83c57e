"""ClusterRouter: rendezvous affinity, determinism, health ordering."""

import itertools
import random

import pytest

from repro import ClusterConfig, FabricCluster, NetworkConfig
from repro.cluster import ClusterRouter, ReplicaState
from repro.core.serialization import assignment_fingerprint

from conftest import make_random_assignment


def cluster_of(k, seed=0, n=16, **net_kw):
    cfg = ClusterConfig(
        replicas=k,
        network=NetworkConfig(n, engine="fast", **net_kw),
        placement_seed=seed,
    )
    return FabricCluster(cfg)


def fingerprints(n=16, count=20, seed=0):
    rng = random.Random(seed)
    return [
        assignment_fingerprint(make_random_assignment(n, rng))
        for _ in range(count)
    ]


class TestRendezvous:
    def test_placement_is_deterministic(self):
        c1, c2 = cluster_of(4, seed=3), cluster_of(4, seed=3)
        try:
            for fp in fingerprints():
                o1 = [r.index for r in c1.router.order(fp, c1.replicas)]
                o2 = [r.index for r in c2.router.order(fp, c2.replicas)]
                assert o1 == o2
        finally:
            c1.close()
            c2.close()

    def test_seed_changes_placement(self):
        c1, c2 = cluster_of(4, seed=0), cluster_of(4, seed=1)
        try:
            homes1 = [
                c1.router.order(fp, c1.replicas)[0].index
                for fp in fingerprints()
            ]
            homes2 = [
                c2.router.order(fp, c2.replicas)[0].index
                for fp in fingerprints()
            ]
            assert homes1 != homes2
        finally:
            c1.close()
            c2.close()

    def test_every_replica_is_someones_home(self):
        """Rendezvous spreads distinct fingerprints over all replicas."""
        c = cluster_of(4)
        try:
            homes = {
                c.router.order(fp, c.replicas)[0].index
                for fp in fingerprints(count=64)
            }
            assert homes == {0, 1, 2, 3}
        finally:
            c.close()

    def test_minimal_disruption_on_replica_loss(self):
        """Removing one replica re-homes only its own fingerprints."""
        c = cluster_of(4)
        try:
            fps = fingerprints(count=64)
            before = {
                fp: c.router.order(fp, c.replicas)[0].index for fp in fps
            }
            c.replicas[2].kill()
            after = {
                fp: c.router.order(fp, c.replicas)[0].index for fp in fps
            }
            for fp in fps:
                if before[fp] != 2:
                    assert after[fp] == before[fp]
                else:
                    assert after[fp] != 2
        finally:
            c.close()


class TestHealthOrdering:
    def test_down_replicas_never_returned(self):
        c = cluster_of(3)
        try:
            c.replicas[1].kill()
            for fp in fingerprints(count=10):
                assert 1 not in [
                    r.index for r in c.router.order(fp, c.replicas)
                ]
        finally:
            c.close()

    def test_draining_excluded_while_up_exists(self):
        c = cluster_of(3)
        try:
            c.replicas[0].drain()
            for fp in fingerprints(count=10):
                order = [r.index for r in c.router.order(fp, c.replicas)]
                assert 0 not in order and len(order) == 2
        finally:
            c.close()

    def test_draining_fallback_when_nothing_up(self):
        """A fully-draining cluster still serves (drains are graceful)."""
        c = cluster_of(2)
        try:
            for r in c.replicas:
                r.drain()
            for fp in fingerprints(count=5):
                order = c.router.order(fp, c.replicas)
                assert [r.state for r in order] == [
                    ReplicaState.DRAINING,
                    ReplicaState.DRAINING,
                ]
        finally:
            c.close()

    def test_weight_is_pure(self):
        router = ClusterRouter(seed=9)
        fp = fingerprints(count=1)[0]
        assert router.weight(fp, 0) == router.weight(fp, 0)
        assert router.weight(fp, 0) != router.weight(fp, 1)


class TestAffinity:
    def test_repeated_assignments_stay_home(self):
        """Plan affinity: the cluster-wide hit rate matches the miss
        count of a single fabric (one compile per distinct plan)."""
        c = cluster_of(4)
        try:
            rng = random.Random(5)
            pool = [make_random_assignment(16, rng) for _ in range(6)]
            for i in range(60):
                c.submit(pool[i % len(pool)])
            assert c.stats.plan_cache_misses == len(pool)
            assert c.stats.plan_cache_hits == 60 - len(pool)
        finally:
            c.close()


def _rendezvous_order(router, fingerprint, replicas):
    """The unmemoised placement order: rank by ``(weight, index)`` on
    every call, UP replicas first (DRAINING when none is UP),
    unimpaired before impaired."""

    def ranked(pool):
        key = lambda r: (router.weight(fingerprint, r.index), r.index)
        healthy = sorted((r for r in pool if not r.impaired), key=key, reverse=True)
        impaired = sorted((r for r in pool if r.impaired), key=key, reverse=True)
        return healthy + impaired

    up = [r for r in replicas if r.state is ReplicaState.UP]
    if up:
        return ranked(up)
    return ranked([r for r in replicas if r.state is ReplicaState.DRAINING])


class _Stub:
    """The three replica attributes the router reads.  Like a
    :class:`~repro.cluster.replica.FabricReplica` built by a cluster, it
    calls ``on_change`` (the router's epoch bump) after each change."""

    def __init__(self, index, on_change=lambda: None):
        self.index = index
        self.state = ReplicaState.UP
        self.impaired = False
        self.on_change = on_change

    def set(self, state, impaired):
        self.state, self.impaired = state, impaired
        self.on_change()


class TestRankMemo:
    def test_memo_equals_rendezvous_under_every_state_mix(self):
        router = ClusterRouter(seed=5, capacity=8)
        replicas = [_Stub(i, router.epoch.bump) for i in range(3)]
        fps = fingerprints(count=12, seed=3)
        per_replica = list(itertools.product(ReplicaState, (False, True)))
        mixes = 0
        for mix in itertools.product(per_replica, repeat=len(replicas)):
            mixes += 1
            for r, (state, impaired) in zip(replicas, mix):
                r.set(state, impaired)
            for fp in fps:
                # The second call is answered from the epoch's memo.
                for _ in range(2):
                    got = router.order(fp, replicas)
                    assert got == _rendezvous_order(router, fp, replicas)
        assert mixes == 216
        assert len(router._ranks) == 8

    def test_health_transitions_mid_campaign(self):
        """Quarantine, probation and re-admission each move a replica
        between the unimpaired and impaired parts of every order."""
        from repro import FaultKind, FaultPlan
        from repro.faults.health import HealthTracker, PlaneState

        c = FabricCluster(
            ClusterConfig(
                replicas=3,
                network=NetworkConfig(
                    16,
                    engine="fast",
                    fault_plan=FaultPlan.random(
                        16, faults=6, seed=2, kinds=[FaultKind.DEAD_SWITCH]
                    ),
                ),
                placement_seed=4,
            ),
            health_factory=lambda: HealthTracker(
                fail_threshold=1, quarantine_frames=3, probe_frames=1
            ),
        )
        try:
            rng = random.Random(9)
            pool = [make_random_assignment(16, rng) for _ in range(8)]
            fps = [assignment_fingerprint(a) for a in pool]
            seen = set()
            for i in range(300):
                c.submit(pool[i % len(pool)])
                for r in c.replicas:
                    seen.add(r.fabric.health.state)
                for fp in fps:
                    assert c.router.order(fp, c.replicas) == _rendezvous_order(
                        c.router, fp, c.replicas
                    )
            assert seen == set(PlaneState)
            assert sum(r.fabric.health.readmissions for r in c.replicas) > 0
        finally:
            c.close()

    def test_draining_only_fallback_and_back(self):
        c = cluster_of(3, seed=6)
        try:
            fps = fingerprints(count=10, seed=8)

            def check():
                for fp in fps:
                    for _ in range(2):
                        assert c.router.order(fp, c.replicas) == _rendezvous_order(
                            c.router, fp, c.replicas
                        )

            check()
            for r in c.replicas:
                r.drain()
                check()
            assert {r.state for r in c.router.order(fps[0], c.replicas)} == {
                ReplicaState.DRAINING
            }
            c.replicas[1].restart()
            check()
            assert [r.index for r in c.router.order(fps[0], c.replicas)] == [1]
            c.kill_replica(1)
            check()
            assert {r.index for r in c.router.order(fps[0], c.replicas)} == {0, 2}
        finally:
            c.close()

    def test_memo_follows_a_kill_and_a_restart(self):
        c = cluster_of(3, seed=2)
        try:
            fps = fingerprints(count=20, seed=4)

            def check():
                for fp in fps:
                    assert c.router.order(fp, c.replicas) == _rendezvous_order(
                        c.router, fp, c.replicas
                    )

            check()
            c.kill_replica(1)
            check()
            c.replicas[0].drain()
            check()
            c.replicas[1].restart()
            check()
            c.replicas[0].restart()
            check()
        finally:
            c.close()

    def test_memo_is_rebuilt_for_another_replica_set(self):
        router = ClusterRouter(seed=1)
        fp = fingerprints(count=1)[0]
        three, two = [_Stub(i) for i in range(3)], [_Stub(2), _Stub(0)]
        for replicas in (three, two, three):
            assert router.order(fp, replicas) == _rendezvous_order(
                router, fp, replicas
            )
        # An in-place edit of the list, announced by an epoch bump.
        three[1] = _Stub(5)
        router.epoch.bump()
        assert router.order(fp, three) == _rendezvous_order(router, fp, three)

    def test_memo_stays_within_its_bound_under_cold_traffic(self):
        c = cluster_of(2, plan_cache_size=4)
        try:
            assert c.router.capacity == 2 * 4
            rng = random.Random(7)
            for _ in range(40):
                c.submit(make_random_assignment(16, rng))
                assert len(c.router._ranks) <= c.router.capacity
            assert len(c.router._ranks) == c.router.capacity
        finally:
            c.close()
