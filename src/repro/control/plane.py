"""The control plane: one tick loop binding signals to actuators.

:class:`ControlPlane` is the only stateful, side-effecting piece of
:mod:`repro.control`.  It owns the
:class:`~repro.control.signals.SignalAggregator` (spliced into the
owner's observer chain so it sees every event), drives the pure
controllers of :mod:`repro.control.controllers` once per tick, and
applies whatever actions they return to the actuators it was bound to:

======================  ==========================================
controller              actuator
======================  ==========================================
``admission``           :meth:`AdmissionGate.update_policy`
                        (``rate``, ``reserve``)
``backoff``             a ``retry_setter`` callback receiving
                        ``RetryPolicy.scaled(scale)``
======================  ==========================================

Every adjustment is appended to an in-memory **decision log** — tick
number, controller, parameter, old/new value, reason, and nothing
else.  Wall-clock timestamps are deliberately excluded: the log is a
pure function of the seed and the arrival trace, so three runs of the
same campaign produce byte-identical exports
(:meth:`ControlPlane.export_decision_log`).  The same adjustments are
emitted as ``("control", "adjust")`` events (which *do* carry ``t_ns``,
for tracing) into the ``repro_control_*`` metric families.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..obs.events import CompositeObserver, emit
from .controllers import (
    AdmissionState,
    BackoffState,
    admission_step,
    backoff_step,
)
from .policy import ControlPolicy
from .signals import SignalAggregator

__all__ = ["ControlPlane", "control_for"]

_LOG_FORMAT_VERSION = 1


class ControlPlane:
    """Tick-driven closed-loop tuner for the serving stack.

    Args:
        policy: the :class:`~repro.control.policy.ControlPolicy`
            envelope (default: ``ControlPolicy()``).
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``control`` events (the owner's configured
            observer — the plane's own signal aggregator is separate
            and always on).

    Lifecycle: the owner (fabric or simulator) gets the plane and its
    spliced config from :func:`control_for`, :meth:`bind`\\ s
    whichever actuators it built, then calls :meth:`maybe_tick` once
    per service opportunity (submission / slot) on the submitting
    thread.  Only bound actuators are controlled; everything else is
    left alone — a fabric without an admission gate simply never runs
    the AIMD loop.
    """

    def __init__(
        self,
        policy: Optional[ControlPolicy] = None,
        observer: Optional[object] = None,
    ):
        self.policy = policy if policy is not None else ControlPolicy()
        self.signals = SignalAggregator(self.policy.window_ticks)
        self.observer = observer
        self.tick_count = 0
        self._events_since_tick = 0
        self._decisions: List[Dict[str, object]] = []
        # Actuators (None until bind()).
        self._gate = None
        self._breaker = None
        self._retry_base = None
        self._retry_setter: Optional[Callable] = None
        # Controller states (None until the matching actuator binds).
        self._admission: Optional[AdmissionState] = None
        self._backoff: Optional[BackoffState] = None

    # -- wiring ----------------------------------------------------------
    def bind(
        self,
        gate=None,
        breaker=None,
        retry_policy=None,
        retry_setter: Optional[Callable] = None,
    ) -> None:
        """Attach the actuators this plane controls.

        Args:
            gate: an :class:`~repro.resilience.gate.AdmissionGate`; its
                current policy seeds the AIMD state.
            breaker: a
                :class:`~repro.resilience.breaker.CircuitBreaker`
                sampled (never driven) for HALF_OPEN at tick time.
            retry_policy: the base
                :class:`~repro.faults.healing.RetryPolicy` backoff
                scaling starts from.
            retry_setter: callback receiving the scaled policy whenever
                the backoff loop changes scale.

        May be called more than once; each call overwrites only the
        actuators it names.
        """
        if gate is not None:
            self._gate = gate
            burst = gate.policy.burst
            cap = burst - 1.0 if math.isfinite(burst) else math.inf
            self._admission = AdmissionState(
                rate=gate.policy.rate,
                reserve=gate.policy.reserve,
                reserve_cap=cap,
            )
        if breaker is not None:
            self._breaker = breaker
        if retry_policy is not None:
            self._retry_base = retry_policy
        if retry_setter is not None:
            self._retry_setter = retry_setter
        if self._retry_base is not None and self._retry_setter is not None:
            if self._backoff is None:
                self._backoff = BackoffState(scale=1.0)

    # -- the tick loop ---------------------------------------------------
    def maybe_tick(self, queue_depth: int = 0) -> bool:
        """Count one owner event; fire :meth:`tick` every ``tick_frames``.

        Returns True when a tick fired.  Called on the submitting
        thread once per fabric submission / simulator slot, with the
        backlog depth the owner observes at that moment.
        """
        self._events_since_tick += 1
        if self._events_since_tick < self.policy.tick_frames:
            return False
        self._events_since_tick = 0
        self.tick(queue_depth)
        return True

    def tick(self, queue_depth: int = 0) -> None:
        """Run one control tick: sample, window, decide, actuate.

        The breaker state is sampled synchronously on the calling
        thread, so the resulting window, and therefore every decision,
        is replayable.
        """
        half_open = (
            self._breaker is not None and self._breaker.state == "half_open"
        )
        self.signals.close_tick(
            queue_depth=queue_depth,
            breaker_half_open=half_open,
        )
        window = self.signals.window()
        self.tick_count += 1
        emit(self.observer, "control", "tick", tick=self.tick_count)

        if self._admission is not None:
            self._admission, actions = admission_step(
                self.policy, window, self._admission
            )
            if actions:
                self._gate.update_policy(
                    rate=self._admission.rate, reserve=self._admission.reserve
                )
                self._record(actions)
        if self._backoff is not None:
            self._backoff, actions = backoff_step(
                self.policy, window, self._backoff
            )
            if actions:
                self._retry_setter(self._retry_base.scaled(self._backoff.scale))
                self._record(actions)

    def _record(self, actions) -> None:
        """Append actions to the decision log and emit adjust events."""
        for a in actions:
            self._decisions.append(
                {
                    "tick": self.tick_count,
                    "controller": a.controller,
                    "parameter": a.parameter,
                    "old": a.old,
                    "new": a.new,
                    "reason": a.reason,
                }
            )
            emit(self.observer, "control", "adjust",
                 controller=a.controller, parameter=a.parameter,
                 old=float(a.old), new=float(a.new), reason=a.reason,
                 tick=self.tick_count)

    # -- the decision log ------------------------------------------------
    def decision_log(self) -> List[Dict[str, object]]:
        """The adjustments made so far, oldest first (a copy).

        Each entry carries ``tick`` / ``controller`` / ``parameter`` /
        ``old`` / ``new`` / ``reason`` and no wall-clock field, so the
        log of a seeded campaign is bit-identical across runs.
        """
        return [dict(d) for d in self._decisions]

    def export_decision_log(self, path: str) -> None:
        """Write the decision log as deterministic JSON to ``path``.

        Parent directories are created; the payload carries a format
        version, the tick count, and the decisions in order.  Running
        the same seeded campaign three times produces three identical
        files — that is the replay guarantee the determinism tests pin.
        """
        payload = {
            "version": _LOG_FORMAT_VERSION,
            "ticks": self.tick_count,
            "decisions": self.decision_log(),
        }
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def control_for(cfg):
    """The control plane ``cfg`` asks for, and the config to build under it.

    Returns ``(None, cfg)`` when ``cfg.control`` is None.  Otherwise the
    plane's signal aggregator is spliced in FRONT of the caller's
    observer, so it sees every event the owner's network and gate emit;
    control events go to the caller's observer only.
    """
    if cfg.control is None:
        return None, cfg
    plane = ControlPlane(cfg.control, observer=cfg.observer)
    return plane, replace(
        cfg, observer=CompositeObserver(plane.signals, cfg.observer)
    )
