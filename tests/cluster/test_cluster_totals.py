"""ClusterStats totals derived from the replicas' fabric statistics.

The terminal and plan-cache totals of :class:`~repro.cluster.ClusterStats`
are summed from the replicas' ``FabricStats`` when read, and carried
over each restart.  These tests recount them from the results
``submit`` returned, across every lifecycle event a campaign has.
"""

import random

from repro import ClusterConfig, FabricCluster, FaultPlan, NetworkConfig
from repro.core.serialization import assignment_fingerprint
from repro.resilience import AdmissionPolicy, ShedFrame

from conftest import make_random_assignment

DERIVED = (
    "deliveries",
    "degraded_frames",
    "lost_frames",
    "lost_terminals",
    "recovered_terminals",
    "plan_cache_hits",
    "plan_cache_misses",
)


class Recount:
    """The cluster totals, recounted from each returned result."""

    def __init__(self):
        self.totals = dict.fromkeys(DERIVED, 0)
        self.frames = self.shed = 0

    def add(self, assignment, result):
        if isinstance(result, ShedFrame):
            self.shed += 1
            return
        t = self.totals
        self.frames += 1
        lost = len(result.lost) if hasattr(result, "outcomes") else 0
        t["deliveries"] += assignment.total_fanout - lost
        t["plan_cache_hits"] += result.plan_cache_hits
        t["plan_cache_misses"] += result.plan_cache_misses
        if hasattr(result, "outcomes"):
            t["degraded_frames"] += result.degraded
            t["lost_frames"] += bool(lost)
            t["lost_terminals"] += lost
            t["recovered_terminals"] += len(result.recovered)

    def check(self, cluster):
        stats = cluster.stats
        assert {k: getattr(stats, k) for k in DERIVED} == self.totals
        assert (stats.frames, stats.shed_frames) == (self.frames, self.shed)
        assert sum(stats.per_replica.values()) == stats.frames


def campaign(seed, faults):
    n = 16
    net = NetworkConfig(
        n,
        engine="fast",
        fault_plan=FaultPlan.random(n, faults=faults, seed=seed) if faults else None,
        admission=AdmissionPolicy(rate=0.6, burst=3),
        plan_cache_size=8,
    )
    cluster = FabricCluster(
        ClusterConfig(replicas=3, network=net, placement_seed=seed)
    )
    rng = random.Random(seed)
    pool = [make_random_assignment(n, rng) for _ in range(12)]
    return cluster, [pool[rng.randrange(len(pool))] for _ in range(240)]


KILLS = (30, 60, 100, 170, 210)


def run_lifecycle(seed, faults):
    cluster, stream = campaign(seed, faults)
    recount = Recount()
    restart = cluster.rolling_restart(drain_frames=5)
    restart.schedule(2, at_frame=150)
    killed = []
    try:
        for i, assignment in enumerate(stream):
            if i in KILLS:  # kill the frame's home in flight: a requeue
                fp = assignment_fingerprint(assignment)
                home = cluster.router.order(fp, cluster.replicas)[0]
                cluster.kill_replica(home.index, at_frame=i)
                killed.append(home)
            if i - 3 in KILLS:  # a cold restart of the killed replica
                killed.pop().restart()
                recount.check(cluster)
            if i == 90:  # a warm restart from the replica's own snapshot
                r = cluster.replicas[0]
                r.restart(r.snapshot())
                recount.check(cluster)
            recount.add(assignment, cluster.submit(assignment))
            if i % 20 == 0:
                recount.check(cluster)
        restart.flush()
        recount.check(cluster)
        return cluster, recount
    finally:
        cluster.close()


class TestDerivedTotals:
    def test_totals_survive_every_lifecycle_event(self):
        for seed, faults in ((3, 0), (5, 2), (8, 3)):
            cluster, recount = run_lifecycle(seed, faults)
            stats = cluster.stats
            assert stats.kills > 0 and stats.restarts == 1
            assert stats.requeues > 0 and stats.spillovers > 0
            assert sum(r.generation for r in cluster.replicas) >= 3
            if faults:
                assert stats.degraded_frames > 0
            # The summary reads the same derived totals.
            summary = cluster.summary()
            assert summary["deliveries"] == recount.totals["deliveries"]
            assert summary["lost_terminals"] == recount.totals["lost_terminals"]

    def test_replica_frames_carry_over_restarts(self):
        cluster, stream = campaign(4, 0)
        try:
            for assignment in stream[:50]:
                cluster.submit(assignment)
            before = [r.frames_served for r in cluster.replicas]
            assert sum(before) == cluster.stats.frames
            cluster.replicas[0].restart()
            cluster.replicas[1].restart(cluster.replicas[1].snapshot())
            assert [r.frames_served for r in cluster.replicas] == before
            assert [r.fabric.stats.frames for r in cluster.replicas[:2]] == [0, 0]
        finally:
            cluster.close()

    def test_stats_is_one_live_view(self):
        cluster, stream = campaign(6, 0)
        try:
            stats = cluster.stats
            cluster.submit(stream[0])
            assert cluster.stats is stats
            assert stats.plan_cache_misses == 1
            cluster.submit(stream[0])
            assert stats.plan_cache_hits == 1
        finally:
            cluster.close()
