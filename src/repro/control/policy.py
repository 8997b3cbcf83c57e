"""The one control-plane configuration object.

:class:`ControlPolicy` bounds every closed-loop adjustment the control
plane (:mod:`repro.control.plane`) is allowed to make.  The controller
itself is a pure function; the policy is the *envelope* it acts
within — AIMD floor/ceiling on the admission refill rate, the reserve
cap and the tick cadence.

Every bound is validated at construction, and every validation error
names the offending field and its accepted range, so a mistyped
campaign fails at config time with an actionable message rather than
mid-run with a drifting controller.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ControlPolicy"]


@dataclass(frozen=True)
class ControlPolicy:
    """Bounds and cadence of the adaptive control plane.

    Attributes:
        tick_frames: owner events (fabric submissions / simulator
            slots) per control tick.  1 re-evaluates every slot; larger
            values trade responsiveness for lower decision churn.
        window_ticks: control ticks in the sliding signal window the
            controllers consume.
        rate_floor: lowest admission refill rate the AIMD loop may set.
        rate_ceiling: highest admission refill rate it may set.
        rate_increase: additive rate increase applied when the window
            shows high-priority sheds (the gate is starving traffic it
            should carry) or spare capacity.
        rate_decrease: multiplicative factor (in ``(0, 1]``) applied to
            the rate when the backlog crosses ``backlog_high`` —
            classic AIMD: probe up gently, back off hard.
        reserve_step: additive bump of the gate's priority token
            reserve when high-priority frames were shed for lack of
            tokens.
        reserve_max: cap on the adapted reserve (must stay below the
            gate's burst or best-effort traffic starves entirely).
        backlog_high: queue depth at/above which the loop backs off
            (multiplicative decrease).
        backlog_low: queue depth at/below which the system is
            considered drained (probing up is safe).
    """

    tick_frames: int = 1
    window_ticks: int = 4
    rate_floor: float = 0.5
    rate_ceiling: float = 8.0
    rate_increase: float = 0.25
    rate_decrease: float = 0.5
    reserve_step: float = 0.5
    reserve_max: float = 4.0
    backlog_high: float = 24.0
    backlog_low: float = 4.0

    def __post_init__(self):
        if self.tick_frames < 1:
            raise ValueError(
                f"tick_frames must be >= 1, got {self.tick_frames}"
            )
        if self.window_ticks < 1:
            raise ValueError(
                f"window_ticks must be >= 1, got {self.window_ticks}"
            )
        if self.rate_floor <= 0:
            raise ValueError(
                f"rate_floor must be > 0, got {self.rate_floor}"
            )
        if self.rate_ceiling < self.rate_floor:
            raise ValueError(
                f"rate_ceiling ({self.rate_ceiling}) must be >= "
                f"rate_floor ({self.rate_floor})"
            )
        if self.rate_increase < 0:
            raise ValueError(
                f"rate_increase must be >= 0, got {self.rate_increase}"
            )
        if not 0.0 < self.rate_decrease <= 1.0:
            raise ValueError(
                f"rate_decrease must be in (0, 1], got {self.rate_decrease}"
            )
        if self.reserve_step < 0:
            raise ValueError(
                f"reserve_step must be >= 0, got {self.reserve_step}"
            )
        if self.reserve_max < 0:
            raise ValueError(
                f"reserve_max must be >= 0, got {self.reserve_max}"
            )
        if self.backlog_high < 0:
            raise ValueError(
                f"backlog_high must be >= 0, got {self.backlog_high}"
            )
        if self.backlog_low < 0:
            raise ValueError(
                f"backlog_low must be >= 0, got {self.backlog_low}"
            )
        if self.backlog_high < self.backlog_low:
            raise ValueError(
                f"backlog_high ({self.backlog_high}) must be >= "
                f"backlog_low ({self.backlog_low})"
            )
