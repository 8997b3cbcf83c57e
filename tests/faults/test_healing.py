"""The healing loop: detection, bounded retries, honest degradation."""

import random

import pytest

from repro.cluster import ClusterConfig, FabricCluster
from repro import MulticastFabric
from repro.core import (
    NetworkConfig,
    build_network,
    route_resilient,
)
from repro.faults import (
    DegradedResult,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    route_with_healing,
)
from repro.obs import Observer
from repro.workloads.random_assignments import random_multicast

from conftest import make_random_assignment


class _Recorder(Observer):
    """Records the fault-path events: injections, healing passes and
    plane transitions."""

    KINDS = {"injected", "detected", "retry", "recovered", "lost",
             "quarantined", "probation", "readmitted"}

    def __init__(self):
        self.events = []

    def on_event(self, event):
        if event.kind in self.KINDS:
            self.events.append(event)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=4, base_delay_s=0.1, multiplier=2.0)
        assert [policy.delay(r) for r in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_zero_base_means_no_sleeping(self):
        assert RetryPolicy().delay(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestHealthyPath:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_no_faults_single_pass(self, engine):
        n = 16
        assignment = make_random_assignment(n, random.Random(0))
        result = route_resilient(NetworkConfig(n, engine=engine), assignment)
        assert isinstance(result, DegradedResult)
        assert result.ok and not result.degraded
        assert result.attempts == 1
        assert result.recovered == () and result.lost == ()
        assert set(result.delivered) == set(assignment.used_outputs)
        assert result.verification is not None and result.verification.ok


class TestHealingOutcomes:
    def test_flaky_recovers_within_budget(self):
        # flaky plane 3 cell 0 with seed 0 drops the first pass for
        # terminals 0/1 and passes a retry (pinned by the seeded RNG).
        plan = FaultPlan.single_switch(
            16, kind=FaultKind.FLAKY_LINK, level=3, index=0
        )
        cfg = NetworkConfig(16, engine="fast", fault_plan=plan)
        result = route_resilient(
            cfg, {0: [0, 1, 2, 3], 5: [8, 9], 12: [12, 15]}
        )
        assert result.ok and result.degraded
        assert result.recovered == (0, 1)
        assert result.attempts == 2
        assert {o: out.status for o, out in result.outcomes.items()}[0] == (
            "recovered"
        )

    def test_dead_delivery_switch_is_honestly_lost(self):
        # Plane m faults pin terminals to the faulty cell: unreachable.
        n = 16
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=4, index=0
        )
        cfg = NetworkConfig(n, engine="reference", fault_plan=plan)
        result = route_resilient(cfg, {3: [0, 1, 2, 3]})
        assert not result.ok
        assert result.lost == (0, 1)
        assert result.attempts == 1 + RetryPolicy().max_retries
        assert sorted(result.verification.violations) != []
        # Scrubbed: no message on lost outputs, real ones elsewhere.
        assert result.outputs[0] is None and result.outputs[1] is None
        assert result.outputs[2] is not None

    def test_outcomes_partition_terminals(self):
        n = 16
        for seed in range(10):
            plan = FaultPlan.random(n, faults=2, seed=seed)
            assignment = make_random_assignment(n, random.Random(seed))
            cfg = NetworkConfig(n, engine="fast", fault_plan=plan)
            result = route_resilient(cfg, assignment)
            terminals = set(assignment.used_outputs)
            assert set(result.outcomes) == terminals
            parts = (
                set(result.delivered),
                set(result.recovered),
                set(result.lost),
            )
            assert set().union(*parts) == terminals
            assert sum(len(p) for p in parts) == len(terminals)

    def test_retry_budget_respected(self):
        n = 16
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=4, index=0
        )
        cfg = NetworkConfig(n, fault_plan=plan)
        result = route_resilient(
            cfg, {3: [0, 1]}, policy=RetryPolicy(max_retries=1)
        )
        assert result.attempts == 2
        assert result.lost == (0, 1)

    def test_zero_retries_detect_only(self):
        n = 16
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=4, index=0
        )
        cfg = NetworkConfig(n, fault_plan=plan)
        result = route_resilient(
            cfg, {3: [0, 1]}, policy=RetryPolicy(max_retries=0)
        )
        assert result.attempts == 1 and result.lost == (0, 1)


class TestEngineAgreementOnHealing:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_same_outcomes_both_engines(self, n):
        for seed in range(10):
            plan = FaultPlan.single_switch(n, seed=seed)
            assignment = make_random_assignment(n, random.Random(seed))
            results = [
                route_resilient(
                    NetworkConfig(n, engine=engine, fault_plan=plan),
                    assignment,
                )
                for engine in ("reference", "fast")
            ]
            ref, fast = results
            assert ref.delivered == fast.delivered, (n, seed)
            assert ref.recovered == fast.recovered, (n, seed)
            assert ref.lost == fast.lost, (n, seed)
            assert ref.attempts == fast.attempts, (n, seed)


class TestHealingEvents:
    def test_lifecycle_events_emitted(self):
        n = 16
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=4, index=0
        )
        rec = _Recorder()
        cfg = NetworkConfig(n, fault_plan=plan, observer=rec)
        result = route_resilient(cfg, {3: [0, 1, 2, 3]})
        actions = [e.kind for e in rec.events]
        # One detected + retry pair per repair pass.
        assert actions.count("detected") == result.attempts - 1
        assert actions.count("retry") == result.attempts - 1
        assert "lost" in actions
        lost_event = next(e for e in rec.events if e.kind == "lost")
        assert lost_event.fields["terminals"] == (0, 1)

    def test_recovered_event_names_terminals(self):
        plan = FaultPlan.single_switch(
            16, kind=FaultKind.FLAKY_LINK, level=3, index=0
        )
        rec = _Recorder()
        cfg = NetworkConfig(16, engine="fast", fault_plan=plan, observer=rec)
        result = route_resilient(
            cfg, {0: [0, 1, 2, 3], 5: [8, 9], 12: [12, 15]}
        )
        assert result.recovered == (0, 1)
        recovered = [e for e in rec.events if e.kind == "recovered"]
        assert recovered and recovered[-1].fields["terminals"] == (0, 1)


class TestDirectLoopEntry:
    def test_route_with_healing_accepts_network(self):
        from repro.core import build_network

        n = 8
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.FLAKY_LINK, level=1, index=0, drop_rate=1.0
        )
        net = build_network(NetworkConfig(n, fault_plan=plan))
        assignment = make_random_assignment(n, random.Random(2))
        result = route_with_healing(net, assignment)
        assert isinstance(result, DegradedResult)
        assert set(result.outcomes) == set(assignment.used_outputs)


class TestPlanCacheAccounting:
    """Frames served through healing count their plan-cache traffic."""

    @staticmethod
    def _faulted_config(n=32):
        kinds = [FaultKind.STUCK_AT, FaultKind.DEAD_SWITCH]
        plan = FaultPlan.random(n, faults=3, seed=1, kinds=kinds)
        return NetworkConfig(n, engine="fast", fault_plan=plan)

    @staticmethod
    def _frames(n=32, count=40):
        pool = [random_multicast(n, load=0.8, seed=s) for s in range(4)]
        return [pool[i % len(pool)] for i in range(count)]

    def test_degraded_result_sums_every_pass(self):
        net = build_network(self._faulted_config())
        result = route_with_healing(net, self._frames(count=1)[0])
        lookups = result.plan_cache_hits + result.plan_cache_misses
        assert lookups == result.attempts
        assert result.plan_cache_misses == net.plan_cache.misses

    def test_fabric_stats_match_both_planes_caches(self):
        fabric = MulticastFabric(self._faulted_config())
        fabric.run(self._frames())
        stats = fabric.stats
        planes = (fabric.network.plan_cache, fabric.standby.plan_cache)
        assert stats.plan_cache_hits == sum(c.hits for c in planes)
        assert stats.plan_cache_misses == sum(c.misses for c in planes)
        assert fabric.network.plan_cache.hits > 0  # healed frames counted

    def test_cluster_stats_match_every_plane_cache(self):
        cluster = FabricCluster(
            ClusterConfig(replicas=2, network=self._faulted_config())
        )
        cluster.run(self._frames())
        fabrics = [r.fabric for r in cluster.replicas]
        caches = [f.network.plan_cache for f in fabrics] + [
            f.standby.plan_cache for f in fabrics
        ]
        assert cluster.stats.plan_cache_hits == sum(c.hits for c in caches)
        assert cluster.stats.plan_cache_misses == sum(c.misses for c in caches)


class _WalkOnly:
    """A network whose results hide ``delivery_src``, so the healing
    loop falls back to walking ``outputs`` message by message."""

    def __init__(self, network):
        self.network = network
        self.n = network.n
        self.observer = network.observer
        self._injector = network._injector

    def route(self, assignment, **kwargs):
        result = self.network.route(assignment, **kwargs)
        result.outputs  # materialise before hiding the vector
        result.delivery_src = None
        return result


class TestHealingReadsDeliveryVector:
    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_degraded_result_as_message_walk(self, n, seed):
        plan = FaultPlan.random(n, faults=n // 4, seed=seed)
        a = random_multicast(n, load=1.0, seed=seed)
        policy = RetryPolicy(max_retries=2)
        vector = route_with_healing(
            build_network(NetworkConfig(n, engine="fast", fault_plan=plan)),
            a, policy=policy,
        )
        walked = route_with_healing(
            _WalkOnly(build_network(
                NetworkConfig(n, engine="fast", fault_plan=plan)
            )),
            a, policy=policy,
        )
        assert vector == walked

    def test_builds_only_verified_messages(self, monkeypatch):
        from repro.core import brsmn as brsmn_mod
        from repro.core.message import Message

        built = []

        class CountingMessage(Message):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(brsmn_mod, "Message", CountingMessage)
        n = 64
        plan = FaultPlan.random(n, faults=12, seed=3)
        net = build_network(NetworkConfig(n, engine="fast", fault_plan=plan))
        result = route_with_healing(net, random_multicast(n, load=1.0, seed=3))
        assert result.degraded
        verified = len(result.delivered) + len(result.recovered)
        assert len(built) == verified < n
