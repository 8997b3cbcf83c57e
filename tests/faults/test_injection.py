"""Cross-engine fault injection: reference and fast stay bit-identical.

The reference engine applies fault planes in-recursion, per switch; the
fast engine folds the same plan into its compiled gather plan.  These
tests pin the property everything else relies on: under any plan the
two engines deliver the same messages to the same outputs and report
the same fault hits.
"""

import random

import pytest

from repro.core import MulticastAssignment, NetworkConfig, build_network
from repro.faults import FaultKind, FaultPlan
from repro.obs import Observer

from conftest import make_random_assignment


def _payloads(n):
    return [f"p{i}" for i in range(n)]


def _asg(n, dests):
    return MulticastAssignment.from_dict(n, dests)


def _snapshot(result):
    """Delivered (output -> source, payload) map of a routing result."""
    return {
        o: (msg.source, msg.payload)
        for o, msg in enumerate(result.outputs)
        if msg is not None
    }


def _hits(result):
    """Fault hits as a comparable set (emission order is engine-specific)."""
    return {
        (h.fault.level, h.fault.index, h.fault.kind.value,
         tuple(sorted(h.outputs)))
        for h in result.fault_casualties
    }


def _route_both(n, plan, assignment, mode="selfrouting"):
    ref = build_network(NetworkConfig(n, engine="reference", fault_plan=plan))
    fast = build_network(NetworkConfig(n, engine="fast", fault_plan=plan))
    kwargs = dict(mode=mode, payloads=_payloads(n))
    return ref.route(assignment, **kwargs), fast.route(assignment, **kwargs)


class TestEnginesAgreeUnderFaults:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("mode", ["selfrouting", "oracle"])
    def test_single_fault_identity(self, n, mode):
        for seed in range(25):
            plan = FaultPlan.single_switch(n, seed=seed)
            assignment = make_random_assignment(n, random.Random(1000 + seed))
            r, f = _route_both(n, plan, assignment, mode=mode)
            assert _snapshot(r) == _snapshot(f), (n, seed, mode)
            assert _hits(r) == _hits(f), (n, seed, mode)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_multi_fault_identity(self, n):
        for seed in range(15):
            plan = FaultPlan.random(n, faults=3, seed=seed)
            assignment = make_random_assignment(n, random.Random(2000 + seed))
            r, f = _route_both(n, plan, assignment)
            assert _snapshot(r) == _snapshot(f), (n, seed)
            assert _hits(r) == _hits(f), (n, seed)

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_each_kind_identity(self, kind):
        n = 16
        for seed in range(10):
            plan = FaultPlan.single_switch(n, seed=seed, kind=kind)
            assignment = make_random_assignment(n, random.Random(3000 + seed))
            r, f = _route_both(n, plan, assignment)
            assert _snapshot(r) == _snapshot(f), (kind, seed)

    def test_batch_matches_single_frames(self):
        n = 16
        plan = FaultPlan.random(n, faults=2, seed=4)
        assignment = make_random_assignment(n, random.Random(4000))
        frames = 6
        matrix = [
            [f"f{f}p{i}" for i in range(n)] for f in range(frames)
        ]
        ref = build_network(
            NetworkConfig(n, engine="reference", fault_plan=plan)
        )
        fast = build_network(NetworkConfig(n, engine="fast", fault_plan=plan))
        batch_ref = ref.route_batch(assignment, matrix)
        batch_fast = fast.route_batch(assignment, matrix)
        assert list(batch_ref.delivery_src) == list(batch_fast.delivery_src)
        for f in range(frames):
            single = ref.route(assignment, payloads=matrix[f])
            expected = [
                msg.payload if msg is not None else None
                for msg in single.outputs
            ]
            assert list(batch_ref.payloads[f]) == expected, f
            assert list(batch_fast.payloads[f]) == expected, f
        assert _hits(batch_ref) == _hits(batch_fast)


class TestFaultSemantics:
    def test_stuck_parallel_is_silent(self):
        n = 16
        for seed in range(8):
            plan = FaultPlan(
                n,
                tuple(
                    f.__class__(**{**f.as_dict(), "stuck_setting": 0})
                    for f in FaultPlan.single_switch(
                        n, seed=seed, kind=FaultKind.STUCK_AT
                    ).faults
                ),
            )
            assignment = make_random_assignment(n, random.Random(seed))
            healthy = build_network(NetworkConfig(n)).route(
                assignment, payloads=_payloads(n)
            )
            r, f = _route_both(n, plan, assignment)
            assert _snapshot(r) == _snapshot(healthy)
            assert _snapshot(f) == _snapshot(healthy)

    def test_inner_stuck_crossed_self_heals(self):
        """Tag-driven routing below an inner plane absorbs the swap."""
        n = 16
        for seed in range(10):
            plan = FaultPlan.single_switch(
                n, seed=seed, kind=FaultKind.STUCK_AT, level=1 + seed % 3
            )
            assignment = make_random_assignment(n, random.Random(seed))
            healthy = build_network(NetworkConfig(n)).route(
                assignment, payloads=_payloads(n)
            )
            r, f = _route_both(n, plan, assignment)
            assert _snapshot(r) == _snapshot(healthy), seed
            assert _snapshot(f) == _snapshot(healthy), seed

    def test_dead_switch_loses_only_crossing_traffic(self):
        n = 8
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=3, index=0
        )
        # Outputs 0 and 1 sit behind the dead delivery cell.
        r, f = _route_both(n, plan, _asg(n, {0: [0, 1], 5: [4, 5]}))
        for result in (r, f):
            snap = _snapshot(result)
            assert set(snap) == {4, 5}
            assert _hits(result) == {(3, 0, "dead_switch", (0, 1))}

    def test_flaky_redraws_per_attempt(self):
        n = 8
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.FLAKY_LINK, level=3, index=1, drop_rate=0.5
        )
        net = build_network(NetworkConfig(n, engine="fast", fault_plan=plan))
        outcomes = set()
        for attempt in range(8):
            net._injector.attempt = attempt
            result = net.route(_asg(n, {1: [2, 3]}), payloads=_payloads(n))
            outcomes.add(frozenset(_snapshot(result)))
        net._injector.attempt = 0
        assert len(outcomes) > 1  # different coins on different attempts


class TestEmptyPlanIsIdentity:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_no_injector_attached(self, engine):
        net = build_network(
            NetworkConfig(16, engine=engine, fault_plan=FaultPlan.empty(16))
        )
        assert net._injector is None and net.fault_plan is None

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_bit_identical_to_no_plan(self, engine):
        n = 16
        for seed in range(10):
            assignment = make_random_assignment(n, random.Random(seed))
            plain = build_network(NetworkConfig(n, engine=engine)).route(
                assignment, payloads=_payloads(n)
            )
            empty = build_network(
                NetworkConfig(
                    n, engine=engine, fault_plan=FaultPlan.empty(n)
                )
            ).route(assignment, payloads=_payloads(n))
            assert _snapshot(plain) == _snapshot(empty)
            assert empty.fault_casualties == []


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


class TestInjectedEvents:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_injected_event_per_hit(self, engine):
        n = 8
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=3, index=0
        )
        rec = _Recorder()
        net = build_network(
            NetworkConfig(n, engine=engine, fault_plan=plan, observer=rec)
        )
        net.route(_asg(n, {0: [0, 1]}), payloads=_payloads(n))
        injected = [e for e in rec.events if e.kind == "injected"]
        assert len(injected) == 1
        (event,) = injected
        assert event.stage == "brsmn"
        assert event.fields["fault"] == "dead_switch"
        assert (event.fields["level"], event.fields["index"]) == (3, 0)
        assert event.fields["terminals"] == (0, 1)

    def test_no_events_when_traffic_misses_the_fault(self):
        n = 8
        plan = FaultPlan.single_switch(
            n, kind=FaultKind.DEAD_SWITCH, level=3, index=3
        )
        rec = _Recorder()
        net = build_network(
            NetworkConfig(n, engine="fast", fault_plan=plan, observer=rec)
        )
        net.route(_asg(n, {0: [0, 1]}), payloads=_payloads(n))
        assert [e for e in rec.events if e.kind == "injected"] == []


class TestPlanCacheKeying:
    def test_faulty_and_healthy_plans_do_not_collide(self):
        n = 16
        assignment = make_random_assignment(n, random.Random(0))
        plan = FaultPlan.single_switch(n, kind="dead_switch", level=4, index=0)
        faulty = build_network(NetworkConfig(n, engine="fast", fault_plan=plan))
        healthy = build_network(NetworkConfig(n, engine="fast"))
        faulty.route(assignment, payloads=_payloads(n))
        healthy.route(assignment, payloads=_payloads(n))
        keys_faulty = set(faulty.plan_cache._plans)
        keys_healthy = set(healthy.plan_cache._plans)
        assert keys_faulty and keys_healthy
        assert keys_faulty.isdisjoint(keys_healthy)
        for key in keys_faulty:
            assert key.endswith("@" + plan.fingerprint())
