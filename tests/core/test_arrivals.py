"""Tests for the arrival process and queueing simulation."""

import pytest

from repro.core.admission import Request
from repro.core.config import NetworkConfig
from repro.core.arrivals import (
    Arrival,
    QueueingSimulator,
    poisson_arrivals,
)
from repro.faults import FaultPlan
from repro.resilience import FabricSnapshot


class TestPoissonArrivals:
    def test_deterministic(self):
        a = poisson_arrivals(16, rate=2.0, slots=20, seed=1)
        b = poisson_arrivals(16, rate=2.0, slots=20, seed=1)
        assert [(x.slot, x.request) for x in a] == [
            (x.slot, x.request) for x in b
        ]

    def test_rate_roughly_respected(self):
        arrivals = poisson_arrivals(16, rate=3.0, slots=200, seed=2)
        assert 2.0 < len(arrivals) / 200 < 4.0

    def test_slots_in_range(self):
        arrivals = poisson_arrivals(16, rate=1.0, slots=10, seed=3)
        assert all(0 <= a.slot < 10 for a in arrivals)

    def test_payloads_unique(self):
        arrivals = poisson_arrivals(16, rate=2.0, slots=30, seed=4)
        payloads = [a.request.payload for a in arrivals]
        assert len(payloads) == len(set(payloads))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(16, rate=-1, slots=5)
        with pytest.raises(ValueError):
            poisson_arrivals(16, rate=1, slots=5, mean_fanout=0.5)


class TestQueueingSimulator:
    def test_everything_served_exactly_once(self):
        arrivals = poisson_arrivals(16, rate=1.5, slots=30, seed=5)
        report = QueueingSimulator(16).run(arrivals)
        assert report.served == len(arrivals)
        assert report.deliveries == sum(a.request.fanout for a in arrivals)
        assert len(report.waits) == len(arrivals)

    def test_no_contention_no_waiting(self):
        """Conflict-free single arrivals per slot are served instantly."""
        arrivals = [
            Arrival(slot, Request(slot % 4, {(slot % 4) + 4}, payload=slot))
            for slot in range(8)
        ]
        report = QueueingSimulator(8).run(arrivals)
        assert report.mean_wait == 0.0

    def test_hot_output_queues(self):
        """Five calls to one output at slot 0 serialise: waits 0..4."""
        arrivals = [
            Arrival(0, Request(i, {7}, payload=i)) for i in range(5)
        ]
        report = QueueingSimulator(8).run(arrivals)
        assert sorted(report.waits) == [0, 1, 2, 3, 4]
        assert report.slots_run == 5

    def test_backlog_drains(self):
        arrivals = poisson_arrivals(16, rate=2.0, slots=25, seed=6)
        report = QueueingSimulator(16).run(arrivals)
        assert report.backlog_per_slot[-1] == 0

    def test_fifo_policy(self):
        arrivals = poisson_arrivals(16, rate=1.0, slots=20, seed=7)
        report = QueueingSimulator(16, policy="fifo").run(arrivals)
        assert report.served == len(arrivals)

    def test_feedback_implementation(self):
        arrivals = poisson_arrivals(8, rate=1.0, slots=10, seed=8)
        report = QueueingSimulator(NetworkConfig(8, implementation="feedback")).run(arrivals)
        assert report.served == len(arrivals)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            QueueingSimulator(8, policy="random")

    def test_overload_guard(self):
        """Persistent overload trips the safety bound, not an endless loop."""
        arrivals = [
            Arrival(0, Request(i % 8, {3}, payload=i)) for i in range(30)
        ]
        with pytest.raises(RuntimeError):
            QueueingSimulator(8, max_slots=10).run(arrivals)

    def test_wait_grows_with_load(self):
        light = QueueingSimulator(16).run(
            poisson_arrivals(16, rate=0.5, slots=60, seed=9)
        )
        heavy = QueueingSimulator(16).run(
            poisson_arrivals(16, rate=4.0, slots=60, seed=9)
        )
        assert heavy.mean_wait >= light.mean_wait


class TestServedThroughFabric:
    """Every slot's frame goes through the simulator's one fabric."""

    def test_deliveries_are_per_run(self):
        sim = QueueingSimulator(16)
        arrivals = poisson_arrivals(16, rate=1.0, slots=10, seed=1)
        first = sim.run(arrivals)
        second = sim.run(arrivals)
        assert first.deliveries > 0
        assert second.deliveries == first.deliveries
        assert sim.fabric.stats.deliveries == 2 * first.deliveries

    def test_snapshot_path_takes_effect(self, tmp_path):
        path = tmp_path / "sim.json"
        cfg = NetworkConfig(
            16,
            engine="fast",
            fault_plan=FaultPlan.random(16, faults=2, seed=1),
            snapshot_path=str(path),
        )
        arrivals = poisson_arrivals(16, rate=1.0, slots=10, seed=2)
        sim = QueueingSimulator(cfg)
        sim.run(arrivals)
        sim.close()
        snap = FabricSnapshot.load(str(path))
        assert snap.assignments and snap.health is not None

        warm = QueueingSimulator(cfg)
        try:
            assert len(warm.fabric.network.plan_cache) == len(snap.assignments)
            assert warm.fabric.health.snapshot() == snap.health
        finally:
            warm.close()
