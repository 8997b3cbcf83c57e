"""The pure control laws: identical inputs, identical decisions."""

from repro.control import (
    AdmissionState,
    ControlPolicy,
    SignalWindow,
    admission_step,
)

POLICY = ControlPolicy(
    rate_floor=0.5,
    rate_ceiling=4.0,
    rate_increase=0.25,
    rate_decrease=0.5,
    reserve_step=0.5,
    reserve_max=2.0,
    backlog_high=16.0,
    backlog_low=2.0,
)


window = SignalWindow


class TestAdmissionStep:
    def test_steady_state_no_action(self):
        state = AdmissionState(rate=1.5, reserve=0.0)
        new, actions = admission_step(POLICY, window(queue_depth=8), state)
        assert new == state and actions == []

    def test_backlog_multiplicative_decrease(self):
        state = AdmissionState(rate=2.0, reserve=0.0)
        new, actions = admission_step(POLICY, window(queue_depth=16), state)
        assert new.rate == 1.0
        assert [a.reason for a in actions] == ["backlog"]
        assert actions[0].parameter == "rate"
        assert (actions[0].old, actions[0].new) == (2.0, 1.0)

    def test_decrease_floored(self):
        state = AdmissionState(rate=0.6, reserve=0.0)
        new, _ = admission_step(POLICY, window(queue_depth=99), state)
        assert new.rate == POLICY.rate_floor

    def test_floor_reached_is_quiescent(self):
        state = AdmissionState(rate=POLICY.rate_floor, reserve=0.0)
        new, actions = admission_step(POLICY, window(queue_depth=99), state)
        assert new == state and actions == []

    def test_high_priority_shed_raises_rate_and_reserve(self):
        state = AdmissionState(rate=1.5, reserve=0.0)
        new, actions = admission_step(POLICY, window(shed_high=2), state)
        assert new.rate == 1.75 and new.reserve == 0.5
        assert [(a.parameter, a.reason) for a in actions] == [
            ("rate", "high_priority_shed"),
            ("reserve", "high_priority_shed"),
        ]

    def test_backlog_beats_shed(self):
        # Back-off wins over probing: first matching rule decides.
        state = AdmissionState(rate=2.0, reserve=0.0)
        new, actions = admission_step(
            POLICY, window(queue_depth=20, shed_high=3), state
        )
        assert new.rate == 1.0 and new.reserve == 0.0
        assert [a.reason for a in actions] == ["backlog"]

    def test_rate_capped_at_ceiling(self):
        state = AdmissionState(rate=POLICY.rate_ceiling, reserve=2.0)
        new, actions = admission_step(POLICY, window(shed_high=1), state)
        assert new.rate == POLICY.rate_ceiling
        assert all(a.parameter != "rate" for a in actions)

    def test_reserve_capped_by_policy_max(self):
        state = AdmissionState(rate=1.0, reserve=POLICY.reserve_max)
        new, actions = admission_step(POLICY, window(shed_high=1), state)
        assert new.reserve == POLICY.reserve_max
        assert all(a.parameter != "reserve" for a in actions)

    def test_reserve_capped_by_gate_burst(self):
        # reserve_cap mirrors the bound gate's burst - 1: an
        # AdmissionPolicy rejects reserve >= burst, so the controller
        # must never decide a value the actuator would refuse.
        state = AdmissionState(rate=1.0, reserve=1.0, reserve_cap=1.0)
        new, actions = admission_step(POLICY, window(shed_high=1), state)
        assert new.reserve == 1.0
        assert new.reserve_cap == 1.0  # cap survives the step
        assert all(a.parameter != "reserve" for a in actions)

    def test_spare_capacity_probes_up(self):
        state = AdmissionState(rate=1.0, reserve=0.0)
        new, actions = admission_step(
            POLICY, window(shed_low=4, queue_depth=1), state
        )
        assert new.rate == 1.25
        assert [a.reason for a in actions] == ["spare_capacity"]

    def test_best_effort_shed_with_backlog_holds(self):
        # Shedding best-effort while the queue is non-trivial is the
        # gate working as intended, not a reason to probe up.
        state = AdmissionState(rate=1.0, reserve=0.0)
        new, actions = admission_step(
            POLICY, window(shed_low=4, queue_depth=8), state
        )
        assert new == state and actions == []

    def test_pure_and_repeatable(self):
        state = AdmissionState(rate=1.5, reserve=0.0)
        w = window(shed_high=1, queue_depth=3)
        assert admission_step(POLICY, w, state) == admission_step(
            POLICY, w, state
        )
