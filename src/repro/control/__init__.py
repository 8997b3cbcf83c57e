"""Adaptive control plane: closed-loop tuning of the serving stack.

PR 5 left the resilience knobs static — a fixed admission refill rate,
a fixed compile-ahead depth, a fixed worker count.  This package closes
the loop: a deterministic, tick-driven control plane watches the
observer event stream and retunes those knobs while a campaign runs,
so provisioning follows load instead of guessing it.

The pieces, smallest to largest:

* :class:`~repro.control.policy.ControlPolicy` — the frozen envelope
  every adjustment must stay within (AIMD floor/ceiling, depth and
  worker bounds, tick cadence).
* :class:`~repro.control.signals.SignalAggregator` /
  :class:`~repro.control.signals.SignalWindow` — an observer folding
  the event stream into a sliding window of per-tick signal buckets.
* :mod:`~repro.control.controllers` — pure
  ``(policy, signals, state) -> (state, actions)`` functions: AIMD
  admission, compile-ahead depth, worker target, breaker-aware backoff.
* :class:`~repro.control.plane.ControlPlane` — the tick loop that
  wires windows to controllers to actuators, logs every decision, and
  emits ``control`` events into the ``repro_control_*`` metric
  families.

Determinism is the contract: controllers consume only signals that are
pure functions of the seed and the arrival trace (caller-thread event
counts, tick-time samples), so the decision log of a seeded campaign
replays bit-identically — including under fault and worker-crash
injection.  Enable it with
``NetworkConfig(control=ControlPolicy(...))`` or
``repro chaos --overload --adaptive``.
"""

from .controllers import (
    AdmissionState,
    BackoffState,
    CompileAheadState,
    ControlAction,
    WorkerState,
    admission_step,
    backoff_step,
    compile_ahead_step,
    worker_step,
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
    "CompileAheadState",
    "WorkerState",
    "BackoffState",
    "admission_step",
    "compile_ahead_step",
    "worker_step",
    "backoff_step",
]
