"""Adaptive control plane: closed-loop tuning of the serving stack.

Without it the resilience knobs are static — a fixed admission
refill rate, a fixed retry backoff.  This package closes the loop: a
deterministic, tick-driven control plane samples the actuators it is
bound to and retunes those knobs while a campaign runs,
so provisioning follows load instead of guessing it.

The pieces, smallest to largest:

* :class:`~repro.control.policy.ControlPolicy` — the frozen envelope
  every adjustment must stay within (AIMD floor/ceiling, backoff
  scale, tick cadence).
* :mod:`~repro.control.controllers` — the
  :class:`~repro.control.controllers.SignalWindow` they read and pure
  ``(policy, signals, state) -> (state, actions)`` functions: AIMD
  admission, breaker-aware backoff.
* :class:`~repro.control.plane.ControlPlane` — the tick loop that
  samples the bound gate's shed counts, the breaker state and the
  backlog into a sliding window, feeds it to the controllers, applies
  their actions, logs every decision, and emits ``control`` events
  into the ``repro_control_*`` metric families.

Determinism is the contract: controllers consume only signals sampled
on the submitting thread at tick time, which are pure functions of the
seed and the arrival trace, so the decision log of a seeded campaign
replays bit-identically — including under fault injection.  Enable
it with ``NetworkConfig(control=ControlPolicy(...))`` or
``repro chaos --overload --adaptive``.
"""

from .controllers import (
    AdmissionState,
    BackoffState,
    ControlAction,
    SignalWindow,
    admission_step,
    backoff_step,
)
from .plane import ControlPlane
from .policy import ControlPolicy

__all__ = [
    "ControlPolicy",
    "ControlPlane",
    "SignalWindow",
    "ControlAction",
    "AdmissionState",
    "BackoffState",
    "admission_step",
    "backoff_step",
]
