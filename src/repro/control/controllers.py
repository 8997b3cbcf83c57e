"""Pure control laws: ``(policy, signals, state) -> (state, actions)``.

The controller here is a *pure function* over immutable inputs — a
:class:`~repro.control.policy.ControlPolicy`, a
:class:`SignalWindow` and the controller's own
frozen state — returning a new state plus the :class:`ControlAction`s
that would move the actuator there.  It never touches the actuator,
reads a clock, or keeps hidden state; the
:class:`~repro.control.plane.ControlPlane` owns all side effects.
That split is what makes seeded campaigns replay bit-identically:
identical windows in, identical decisions out, every run.

The loop, :func:`admission_step`, is AIMD on the
:class:`~repro.resilience.gate.AdmissionGate` refill rate (and its
priority reserve): additive increase while high-priority frames are
being shed or capacity sits idle, multiplicative decrease the moment
the backlog crosses ``backlog_high``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .policy import ControlPolicy

__all__ = [
    "SignalWindow",
    "ControlAction",
    "AdmissionState",
    "admission_step",
]


@dataclass(frozen=True)
class SignalWindow:
    """What the controllers see of the last ``window_ticks`` ticks.

    The control plane builds one per tick from state it samples on the
    submitting thread, so every field is a pure function of the seed
    and the arrival trace.

    Attributes:
        shed_high: priority > 0 frames the bound gate shed in the
            window — the signal the AIMD loop exists to drive to zero.
        shed_low: priority <= 0 frames shed in the window.
        queue_depth: backlog depth sampled at the most recent tick.
    """

    shed_high: int = 0
    shed_low: int = 0
    queue_depth: int = 0


@dataclass(frozen=True)
class ControlAction:
    """One actuator adjustment a controller decided on.

    Attributes:
        controller: which loop decided (``"admission"``).
        parameter: the actuator knob (``"rate"`` or ``"reserve"``).
        old: the knob's value before the adjustment.
        new: the value the controller chose.
        reason: deterministic one-word cause (``"backlog"``,
            ``"high_priority_shed"``, ``"spare_capacity"``).
    """

    controller: str
    parameter: str
    old: float
    new: float
    reason: str


@dataclass(frozen=True)
class AdmissionState:
    """AIMD state: the rate and reserve currently set on the gate.

    ``reserve_cap`` is the hard ceiling the bound gate imposes on the
    reserve (its burst minus one token — an
    :class:`~repro.resilience.gate.AdmissionPolicy` rejects a reserve
    at or above its burst, or best-effort traffic could never pass).
    The effective reserve bound is the tighter of this cap and the
    control policy's ``reserve_max``.
    """

    rate: float
    reserve: float
    reserve_cap: float = float("inf")


def admission_step(
    policy: ControlPolicy, signals: SignalWindow, state: AdmissionState
) -> Tuple[AdmissionState, List[ControlAction]]:
    """AIMD over the admission gate's refill rate and priority reserve.

    Decision order (first match wins — back-off beats probing):

    1. backlog at/above ``backlog_high`` → multiplicative decrease
       (``rate *= rate_decrease``, floored at ``rate_floor``).  A deep
       queue means admissions outpace service; shedding earlier (and
       lower-priority) is the only lever that shortens it.
    2. high-priority sheds in the window → additive increase
       (``rate += rate_increase``, capped at ``rate_ceiling``) *and*
       ``reserve += reserve_step`` (capped at ``reserve_max``): the
       gate refused traffic it exists to protect, so both widen the
       pipe and fence more of it off for the privileged class.
    3. best-effort sheds while drained (backlog <= ``backlog_low``) →
       additive increase: the gate is the bottleneck, not the fabric.

    Pure: returns the new state and the actions that realise it.
    """
    actions: List[ControlAction] = []
    rate, reserve = state.rate, state.reserve
    if signals.queue_depth >= policy.backlog_high:
        new_rate = max(policy.rate_floor, rate * policy.rate_decrease)
        if new_rate != rate:
            actions.append(
                ControlAction("admission", "rate", rate, new_rate, "backlog")
            )
            rate = new_rate
    elif signals.shed_high > 0:
        new_rate = min(policy.rate_ceiling, rate + policy.rate_increase)
        if new_rate != rate:
            actions.append(
                ControlAction(
                    "admission", "rate", rate, new_rate, "high_priority_shed"
                )
            )
            rate = new_rate
        new_reserve = min(
            policy.reserve_max,
            state.reserve_cap,
            reserve + policy.reserve_step,
        )
        if new_reserve != reserve:
            actions.append(
                ControlAction(
                    "admission",
                    "reserve",
                    reserve,
                    new_reserve,
                    "high_priority_shed",
                )
            )
            reserve = new_reserve
    elif signals.shed_low > 0 and signals.queue_depth <= policy.backlog_low:
        new_rate = min(policy.rate_ceiling, rate + policy.rate_increase)
        if new_rate != rate:
            actions.append(
                ControlAction(
                    "admission", "rate", rate, new_rate, "spare_capacity"
                )
            )
            rate = new_rate
    return (
        AdmissionState(
            rate=rate, reserve=reserve, reserve_cap=state.reserve_cap
        ),
        actions,
    )

