"""ControlPlane: signal windows, the gate it tunes, events, export."""

import json

import pytest

from repro.control import ControlPlane, ControlPolicy, SignalWindow
from repro.core import NetworkConfig
from repro.core.arrivals import QueueingSimulator
from repro.core.fabric import MulticastFabric
from repro.obs import MetricsObserver, Observer
from repro.resilience import AdmissionGate, AdmissionPolicy


class RecordingObserver(Observer):
    """Collects every control event it receives."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        if event.stage == "control":
            self.events.append(event)


def make_gate(rate=1.0, burst=8.0):
    return AdmissionGate(AdmissionPolicy(rate=rate, burst=burst))


def shed(gate, priority=1, count=1):
    """Drive ``gate`` until it has shed ``count`` more frames of
    ``priority`` (admitting frames drains its bucket first)."""
    target = gate.shed_by_priority.get(priority, 0) + count
    while gate.shed_by_priority.get(priority, 0) < target:
        gate.admit(priority=priority)


def gated_plane(policy=None, **kwargs):
    """A plane tuning a fresh gate; returns ``(plane, gate)``."""
    gate = make_gate()
    plane = ControlPlane(policy or ControlPolicy(), gate=gate, **kwargs)
    return plane, gate


class TestSignalWindow:
    def test_empty_window(self):
        assert ControlPlane(ControlPolicy()).window == SignalWindow()

    def test_sheds_split_by_priority(self):
        plane, gate = gated_plane()
        shed(gate, priority=2)
        shed(gate, priority=1)
        shed(gate, priority=0, count=2)
        shed(gate, priority=-1)
        plane.tick(queue_depth=7)
        assert plane.window == SignalWindow(
            shed_high=2, shed_low=3, queue_depth=7
        )

    def test_window_slides(self):
        plane, gate = gated_plane(ControlPolicy(window_ticks=2))
        for depth in (1, 2, 3):
            shed(gate)
            plane.tick(queue_depth=depth)
        w = plane.window
        assert w.shed_high == 2    # oldest tick evicted, flows summed
        assert w.queue_depth == 3  # levels come from the latest tick

    def test_levels_not_summed(self):
        plane = ControlPlane(ControlPolicy())
        plane.tick(queue_depth=10)
        assert plane.window.queue_depth == 10
        plane.tick(queue_depth=0)
        assert plane.window == SignalWindow()

    def test_sheds_before_construction_do_not_count(self):
        # The gate has shed frames before the plane sees it: only its
        # sheds after construction may count, not its running totals.
        gate = make_gate()
        shed(gate, count=5)
        plane = ControlPlane(ControlPolicy(window_ticks=1), gate=gate)
        plane.tick()
        assert plane.window.shed_high == 0
        shed(gate, count=2)
        plane.tick()
        assert plane.window.shed_high == 2


class TestSignalAggregator:
    """The signal window the plane keeps itself (it once had its own
    aggregator class) still refuses a window of no ticks by name."""

    def test_bad_window_rejected_by_name(self):
        with pytest.raises(ValueError, match="window_ticks"):
            ControlPlane(ControlPolicy(window_ticks=0))


class TestObserverChainUntouched:
    """Control reads its gate, never the observer chain."""

    @pytest.mark.parametrize(
        "observer", [None, MetricsObserver()], ids=["none", "metrics"]
    )
    def test_fabric_keeps_the_callers_observer(self, observer):
        fabric = MulticastFabric(
            NetworkConfig(
                8,
                admission=AdmissionPolicy(rate=1.0, burst=2.0),
                control=ControlPolicy(),
                observer=observer,
            )
        )
        assert fabric.control is not None
        assert fabric.observer is observer
        assert fabric.network.observer is observer
        assert fabric.gate.observer is observer

    @pytest.mark.parametrize(
        "observer", [None, MetricsObserver()], ids=["none", "metrics"]
    )
    def test_simulator_keeps_the_callers_observer(self, observer):
        sim = QueueingSimulator(
            NetworkConfig(
                8,
                admission=AdmissionPolicy(rate=1.0, burst=2.0),
                control=ControlPolicy(),
                observer=observer,
            )
        )
        assert sim.control is not None
        assert sim.observer is observer
        assert sim.fabric.network.observer is observer
        assert sim.gate.observer is observer


class TestTickCadence:
    def test_tick_frames_batches_events(self):
        plane = ControlPlane(ControlPolicy(tick_frames=3))
        assert not plane.maybe_tick()
        assert not plane.maybe_tick()
        assert plane.maybe_tick()
        assert plane.tick_count == 1

    def test_tick_events_reach_the_owner_observer(self):
        rec = RecordingObserver()
        plane = ControlPlane(ControlPolicy(), observer=rec)
        plane.tick()
        assert [e.kind for e in rec.events] == ["tick"]
        assert rec.events[0].fields["tick"] == 1
        assert rec.events[0].t_ns > 0


class TestGateActuation:
    def test_shed_high_raises_gate_rate_and_reserve(self):
        plane, gate = gated_plane(ControlPolicy(rate_increase=0.5))
        shed(gate)
        plane.tick(queue_depth=0)
        assert gate.policy.rate == 1.5
        assert gate.policy.reserve == 0.5

    def test_backlog_cuts_gate_rate(self):
        gate = make_gate(rate=4.0)
        plane = ControlPlane(ControlPolicy(backlog_high=10.0), gate=gate)
        plane.tick(queue_depth=50)
        assert gate.policy.rate == 2.0

    def test_reserve_never_reaches_gate_burst(self):
        # The gate would raise on reserve >= burst; the plane's
        # reserve_cap keeps every decided value applicable.
        gate = make_gate(burst=2.0)
        plane = ControlPlane(
            ControlPolicy(reserve_step=5.0, reserve_max=100.0), gate=gate
        )
        for _ in range(4):
            shed(gate)
            plane.tick(queue_depth=0)
        assert gate.policy.reserve == 1.0  # burst - 1, not reserve_max

    def test_unbound_plane_ticks_without_actuating(self):
        plane = ControlPlane(ControlPolicy())
        shed(make_gate())
        plane.tick(queue_depth=99)
        assert plane.decision_log() == []


class TestDecisionLog:
    def make_logged_plane(self):
        plane, gate = gated_plane()
        shed(gate)
        plane.tick(queue_depth=0)
        return plane

    def test_entries_carry_no_wall_clock(self):
        log = self.make_logged_plane().decision_log()
        assert log, "expected at least one decision"
        for entry in log:
            assert set(entry) == {
                "tick", "controller", "parameter", "old", "new", "reason"
            }

    def test_log_is_a_copy(self):
        plane = self.make_logged_plane()
        plane.decision_log().clear()
        assert plane.decision_log()

    def test_export_round_trips(self, tmp_path):
        plane = self.make_logged_plane()
        path = tmp_path / "nested" / "decisions.json"
        plane.export_decision_log(str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["ticks"] == plane.tick_count
        assert doc["decisions"] == plane.decision_log()

    def test_adjust_events_mirror_the_log(self):
        rec = RecordingObserver()
        plane, gate = gated_plane(observer=rec)
        shed(gate)
        plane.tick(queue_depth=0)
        adjusts = [e for e in rec.events if e.kind == "adjust"]
        log = plane.decision_log()
        assert len(adjusts) == len(log)
        for event, entry in zip(adjusts, log):
            assert event.fields["controller"] == entry["controller"]
            assert event.fields["parameter"] == entry["parameter"]
            assert event.fields["new"] == entry["new"]
            assert event.t_ns > 0  # events do carry wall-clock


class TestControlMetrics:
    def test_metric_families_populated(self):
        metrics = MetricsObserver()
        plane, gate = gated_plane(observer=metrics)
        shed(gate)
        plane.tick(queue_depth=0)
        doc = json.loads(metrics.registry.to_json())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["repro_control_ticks_total"]["samples"][0]["value"] == 1
        decisions = by_name["repro_control_decisions_total"]["samples"]
        assert sum(s["value"] for s in decisions) == len(plane.decision_log())
        assert (
            by_name["repro_control_admission_rate"]["samples"][0]["value"]
            == gate.policy.rate
        )
