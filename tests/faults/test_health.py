"""Plane health: the quarantine state machine, fabric and queueing."""

import random

import pytest

from repro.core import (
    MulticastFabric,
    NetworkConfig,
    QueueingSimulator,
    RoutingResult,
)
from repro.core.arrivals import poisson_arrivals
from repro.faults import (
    DegradedResult,
    FaultKind,
    FaultPlan,
    HealthTracker,
    PlaneState,
    RetryPolicy,
)
from repro.obs import Observer
from repro.workloads import random_multicast


class TestHealthTracker:
    def test_quarantine_after_consecutive_failures(self):
        h = HealthTracker(fail_threshold=3)
        assert h.record(True) is PlaneState.HEALTHY
        assert h.record(True) is PlaneState.HEALTHY
        assert h.record(True) is PlaneState.QUARANTINED
        assert h.quarantines == 1 and not h.use_primary

    def test_clean_frame_resets_the_streak(self):
        h = HealthTracker(fail_threshold=2)
        h.record(True)
        h.record(False)
        h.record(True)
        assert h.state is PlaneState.HEALTHY

    def test_full_cycle_to_readmission(self):
        h = HealthTracker(
            fail_threshold=1, quarantine_frames=2, probe_frames=2
        )
        h.record(True)
        assert h.state is PlaneState.QUARANTINED
        h.record(False)
        assert h.state is PlaneState.QUARANTINED  # draining
        h.record(False)
        assert h.state is PlaneState.PROBATION
        h.record(False)
        assert h.state is PlaneState.PROBATION
        h.record(False)
        assert h.state is PlaneState.HEALTHY
        assert h.readmissions == 1

    def test_degraded_probe_requarantines(self):
        h = HealthTracker(
            fail_threshold=1, quarantine_frames=0, probe_frames=2
        )
        h.record(True)
        h.record(False)  # drains instantly -> probation
        assert h.state is PlaneState.PROBATION
        h.record(True)
        assert h.state is PlaneState.QUARANTINED
        assert h.quarantines == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthTracker(fail_threshold=0)
        with pytest.raises(ValueError):
            HealthTracker(probe_frames=0)


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


def _degrading_plan(n=16):
    """A plan that reliably degrades broadcast-heavy frames."""
    return FaultPlan.single_switch(
        n, kind=FaultKind.DEAD_SWITCH, level=4, index=0
    )


class TestFabricHealth:
    def test_returns_degraded_results_on_primary(self):
        n = 16
        fabric = MulticastFabric(
            NetworkConfig(n, fault_plan=_degrading_plan(n))
        )
        result = fabric.submit(random_multicast(n, seed=0))
        assert isinstance(result, DegradedResult)
        assert fabric.stats.frames == 1

    def test_quarantine_then_standby_then_readmit(self):
        n = 16
        rec = _Recorder()
        fabric = MulticastFabric(
            NetworkConfig(n, fault_plan=_degrading_plan(n), observer=rec),
            health=HealthTracker(
                fail_threshold=2, quarantine_frames=3, probe_frames=10
            ),
        )
        # Frames that always cross the dead delivery cell (outputs 0/1).
        frame = random_multicast(n, seed=1)
        while 0 not in frame.used_outputs or 1 not in frame.used_outputs:
            frame = random_multicast(n, seed=random.randrange(10_000))
        for _ in range(2):
            fabric.submit(frame)
        assert fabric.health.state is PlaneState.QUARANTINED
        assert fabric.stats.quarantines == 1
        # While quarantined, traffic drains on the fault-free standby:
        # served frames come back as plain verified RoutingResults.
        standby_result = fabric.submit(frame)
        assert isinstance(standby_result, RoutingResult)
        assert fabric.stats.standby_frames == 1
        fabric.submit(frame)
        fabric.submit(frame)
        assert fabric.health.state is PlaneState.PROBATION
        actions = [e.kind for e in rec.events]
        assert "quarantined" in actions and "probation" in actions

    def test_fault_losses_never_raise_even_strict(self):
        n = 16
        fabric = MulticastFabric(
            NetworkConfig(n, fault_plan=_degrading_plan(n)), strict=True
        )
        frame = random_multicast(n, seed=1)
        while 0 not in frame.used_outputs:
            frame = random_multicast(n, seed=random.randrange(10_000))
        result = fabric.submit(frame)  # loses terminals, must not raise
        assert result.lost
        assert fabric.stats.lost_frames == 1
        assert fabric.stats.lost_terminals == len(result.lost)
        assert fabric.stats.failures  # accounted instead

    def test_stats_accumulate_recovered(self):
        n = 32
        plan = FaultPlan.random(n, faults=2, seed=4)  # includes a flaky
        fabric = MulticastFabric(
            NetworkConfig(n, fault_plan=plan),
            retry_policy=RetryPolicy(max_retries=3),
        )
        fabric.run(random_multicast(n, seed=i) for i in range(40))
        s = fabric.stats
        assert s.frames == 40
        assert s.degraded_frames > 0
        assert s.recovered_terminals > 0
        assert s.standby_frames > 0

    def test_reset_rebuilds_health(self):
        n = 16
        fabric = MulticastFabric(
            NetworkConfig(n, fault_plan=_degrading_plan(n)),
            health=HealthTracker(fail_threshold=1),
        )
        frame = random_multicast(n, seed=1)
        while 0 not in frame.used_outputs:
            frame = random_multicast(n, seed=random.randrange(10_000))
        fabric.submit(frame)
        assert fabric.health.state is PlaneState.QUARANTINED
        fabric.reset()
        assert fabric.health.state is PlaneState.HEALTHY
        assert fabric.health.fail_threshold == 1
        assert fabric.stats.frames == 0

    def test_no_fault_plan_means_no_health_machinery(self):
        fabric = MulticastFabric(NetworkConfig(16))
        assert fabric.health is None and fabric.standby is None
        result = fabric.submit(random_multicast(16, seed=0))
        assert isinstance(result, RoutingResult)


class TestQueueingUnderFaults:
    def test_served_plus_abandoned_accounts_everything(self):
        n = 16
        plan = _degrading_plan(n)
        sim = QueueingSimulator(
            NetworkConfig(n, fault_plan=plan), max_requeues=2
        )
        arrivals = poisson_arrivals(n, rate=1.5, slots=30, seed=3)
        report = sim.run(arrivals)
        assert report.served + report.abandoned == len(arrivals)
        # The dead delivery cell guarantees some losses and requeues.
        assert report.requeued > 0
        assert report.abandoned > 0

    def test_zero_requeues_abandons_immediately(self):
        n = 16
        sim = QueueingSimulator(
            NetworkConfig(n, fault_plan=_degrading_plan(n)), max_requeues=0
        )
        arrivals = poisson_arrivals(n, rate=1.0, slots=20, seed=5)
        report = sim.run(arrivals)
        assert report.requeued == 0
        assert report.served + report.abandoned == len(arrivals)

    def test_healthy_config_ignores_fault_kwargs(self):
        n = 8
        sim = QueueingSimulator(NetworkConfig(n), max_requeues=5)
        arrivals = poisson_arrivals(n, rate=1.0, slots=10, seed=1)
        report = sim.run(arrivals)
        assert report.served == len(arrivals)
        assert report.requeued == 0 and report.abandoned == 0

    def test_max_requeues_validation(self):
        with pytest.raises(ValueError, match="max_requeues"):
            QueueingSimulator(NetworkConfig(8), max_requeues=-1)


class TestConfigValidation:
    def test_plan_size_must_match(self):
        with pytest.raises(ValueError, match="fault_plan is for"):
            NetworkConfig(16, fault_plan=FaultPlan.empty(8))

    def test_feedback_rejects_fault_plan(self):
        with pytest.raises(ValueError, match="unrolled"):
            NetworkConfig(
                16,
                implementation="feedback",
                fault_plan=_degrading_plan(16),
            )
