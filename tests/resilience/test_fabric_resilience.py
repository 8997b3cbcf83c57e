"""MulticastFabric under the resilience layer: gate, deadline, breaker,
and leak-safe close."""

import random

import pytest

from conftest import make_random_assignment
from repro import (
    AdmissionPolicy,
    BreakerPolicy,
    DeadlineBudget,
    MulticastFabric,
    NetworkConfig,
    RetryPolicy,
    ShedFrame,
)
from repro.faults import FaultPlan
from repro.faults.healing import route_with_healing
from repro.resilience import CircuitBreaker


def _frames(n, count, seed=0):
    rng = random.Random(seed)
    return [make_random_assignment(n, rng) for _ in range(count)]


class TestAdmissionOnSubmit:
    def test_shed_frames_never_route(self):
        pol = AdmissionPolicy(rate=0.0, burst=2.0)
        fab = MulticastFabric(NetworkConfig(16, engine="fast", admission=pol))
        results = [fab.submit(f) for f in _frames(16, 5, seed=1)]
        shed = [r for r in results if isinstance(r, ShedFrame)]
        routed = [r for r in results if not isinstance(r, ShedFrame)]
        assert len(routed) == 2 and len(shed) == 3
        assert all(s.ok is False for s in shed)
        assert fab.stats.frames == 2
        assert fab.stats.shed_frames == 3
        fab.close()

    def test_priority_survives_the_reserve(self):
        pol = AdmissionPolicy(rate=0.0, burst=2.0, reserve=1.0)
        fab = MulticastFabric(NetworkConfig(16, engine="fast", admission=pol))
        frames = _frames(16, 3, seed=2)
        assert not isinstance(fab.submit(frames[0], priority=0), ShedFrame)
        assert isinstance(fab.submit(frames[1], priority=0), ShedFrame)
        assert not isinstance(fab.submit(frames[2], priority=1), ShedFrame)
        fab.close()

    def test_no_admission_config_means_no_gate(self):
        fab = MulticastFabric(NetworkConfig(16, engine="fast"))
        assert fab.gate is None
        fab.close()


class TestDeadlineOnHealing:
    def _faulted_network(self):
        from repro.core.routing import build_network

        plan = FaultPlan.random(16, faults=4, seed=3)
        return build_network(NetworkConfig(16, engine="fast", fault_plan=plan))

    def test_expired_budget_stops_repair_passes(self):
        class Expired:
            unlimited = False
            expired = True

            def clamp(self, d):
                return 0.0

        net = self._faulted_network()
        frame = _frames(16, 1, seed=4)[0]
        result = route_with_healing(net, frame, budget=Expired())
        if result.lost:
            assert result.deadline_expired
            assert result.attempts == 1  # no repair pass ran
        net.close()

    def test_backoff_sleeps_are_clamped_to_the_budget(self):
        """A 5 s base backoff under a 50 ms budget returns promptly."""
        import time

        net = self._faulted_network()
        frame = _frames(16, 1, seed=5)[0]
        slow = RetryPolicy(max_retries=3, base_delay_s=5.0)
        t0 = time.monotonic()
        route_with_healing(
            net, frame, policy=slow, budget=DeadlineBudget(50.0)
        )
        assert time.monotonic() - t0 < 2.0
        net.close()

    def test_open_breaker_short_circuits_the_retry_loop(self):
        net = self._faulted_network()
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record(False)
        assert breaker.is_open
        frame = _frames(16, 1, seed=6)[0]
        result = route_with_healing(net, frame, breaker=breaker)
        if result.lost:
            assert result.short_circuited
            assert result.attempts == 1
        net.close()


class TestBreakerOnFabric:
    def test_tripped_breaker_quarantines_and_short_circuits(self):
        plan = FaultPlan.random(16, faults=4, seed=7)
        cfg = NetworkConfig(
            16,
            engine="fast",
            fault_plan=plan,
            breaker=BreakerPolicy(
                failure_threshold=2, open_frames=3, half_open_probes=1
            ),
        )
        fab = MulticastFabric(cfg, strict=False)
        for f in _frames(16, 40, seed=8):
            fab.submit(f)
        assert fab.breaker.opens > 0
        assert fab.stats.short_circuits > 0
        assert fab.stats.quarantines > 0
        # Short-circuited frames were served (on the standby), not lost.
        assert fab.stats.standby_frames >= fab.stats.short_circuits
        fab.close()

    def test_faultless_fabric_has_no_breaker(self):
        cfg = NetworkConfig(
            16, engine="fast", breaker=BreakerPolicy()
        )
        fab = MulticastFabric(cfg)
        assert fab.breaker is None  # breaker guards the fault plane only
        fab.close()


class TestDeadlineStats:
    def test_deadline_expiries_are_counted(self):
        # deadline_ms so small every healed frame's first budget check
        # has already expired.
        plan = FaultPlan.random(16, faults=4, seed=9)
        cfg = NetworkConfig(
            16, engine="fast", fault_plan=plan, deadline_ms=1e-6
        )
        fab = MulticastFabric(cfg, strict=False)
        for f in _frames(16, 30, seed=10):
            fab.submit(f)
        # Degraded frames hit the expired budget before any repair.
        if fab.stats.degraded_frames:
            assert fab.stats.deadline_expired_frames > 0
        fab.close()


class TestCloseSafety:
    def test_fabric_close_reaches_standby_when_primary_raises(self):
        plan = FaultPlan.random(16, faults=2, seed=11)
        cfg = NetworkConfig(16, engine="fast", fault_plan=plan)
        fab = MulticastFabric(cfg, strict=False)
        closed = []

        fab.standby.close = lambda: closed.append("standby")

        def exploding_close():
            raise RuntimeError("primary close blew up")

        fab.network.close = exploding_close
        with pytest.raises(RuntimeError, match="primary close"):
            fab.close()
        assert closed == ["standby"]

    def test_close_is_idempotent(self):
        fab = MulticastFabric(NetworkConfig(16, engine="fast"))
        fab.close()
        fab.close()
