"""Adaptive control plane: closed-loop tuning of the serving stack.

Without it the admission gate is static — a fixed refill rate and
priority reserve.  This package closes the loop: a deterministic,
tick-driven control plane samples the gate it was given and retunes
those knobs while a campaign runs, so provisioning follows load
instead of guessing it.

The pieces, smallest to largest:

* :class:`~repro.control.policy.ControlPolicy` — the frozen envelope
  every adjustment must stay within (AIMD floor/ceiling, reserve cap,
  tick cadence).
* :mod:`~repro.control.controllers` — the
  :class:`~repro.control.controllers.SignalWindow` it reads and the
  pure ``(policy, signals, state) -> (state, actions)`` AIMD admission
  controller.
* :class:`~repro.control.plane.ControlPlane` — the tick loop that
  samples the gate's shed counts and the backlog into a sliding
  window, feeds it to the controller, applies its actions, logs every
  decision, and emits ``control`` events into the ``repro_control_*``
  metric families.

Determinism is the contract: the controller consumes only signals
sampled on the submitting thread at tick time, which are pure functions
of the seed and the arrival trace, so the decision log of a seeded campaign
replays bit-identically — including under fault injection.  Enable
it with ``NetworkConfig(control=ControlPolicy(...))`` or
``repro chaos --overload --adaptive``.
"""

from .controllers import (
    AdmissionState,
    ControlAction,
    SignalWindow,
    admission_step,
)
from .plane import ControlPlane
from .policy import ControlPolicy

__all__ = [
    "ControlPolicy",
    "ControlPlane",
    "SignalWindow",
    "ControlAction",
    "AdmissionState",
    "admission_step",
]
