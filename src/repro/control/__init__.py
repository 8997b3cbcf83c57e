"""Adaptive control plane: closed-loop tuning of the serving stack.

Without it the resilience knobs are static — a fixed admission
refill rate, a fixed retry backoff.  This package closes the loop: a
deterministic, tick-driven control plane watches the
observer event stream and retunes those knobs while a campaign runs,
so provisioning follows load instead of guessing it.

The pieces, smallest to largest:

* :class:`~repro.control.policy.ControlPolicy` — the frozen envelope
  every adjustment must stay within (AIMD floor/ceiling, backoff
  scale, tick cadence).
* :class:`~repro.control.signals.SignalAggregator` /
  :class:`~repro.control.signals.SignalWindow` — an observer folding
  the event stream into a sliding window of per-tick signal buckets.
* :mod:`~repro.control.controllers` — pure
  ``(policy, signals, state) -> (state, actions)`` functions: AIMD
  admission, breaker-aware backoff.
* :class:`~repro.control.plane.ControlPlane` — the tick loop that
  wires windows to controllers to actuators, logs every decision, and
  emits ``control`` events into the ``repro_control_*`` metric
  families.

Determinism is the contract: controllers consume only signals that are
pure functions of the seed and the arrival trace (caller-thread event
counts, tick-time samples), so the decision log of a seeded campaign
replays bit-identically — including under fault injection.  Enable
it with ``NetworkConfig(control=ControlPolicy(...))`` or
``repro chaos --overload --adaptive``.
"""

from .controllers import (
    AdmissionState,
    BackoffState,
    ControlAction,
    admission_step,
    backoff_step,
)
from .plane import ControlPlane
from .policy import ControlPolicy
from .signals import SignalAggregator, SignalWindow

__all__ = [
    "ControlPolicy",
    "ControlPlane",
    "SignalAggregator",
    "SignalWindow",
    "ControlAction",
    "AdmissionState",
    "BackoffState",
    "admission_step",
    "backoff_step",
]
