"""The control plane: one tick loop from signals to the admission gate.

:class:`ControlPlane` is the only stateful, side-effecting piece of
:mod:`repro.control`.  Once per tick it samples the admission gate it
was given — its shed counts — plus the owner's backlog depth, folds
them into a :class:`~repro.control.controllers.SignalWindow`, drives
the pure AIMD controller
(:func:`~repro.control.controllers.admission_step`), and applies the
actions it returns through :meth:`AdmissionGate.update_policy`
(``rate``, ``reserve``).

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
from collections import deque
from typing import Dict, List, Optional

from ..obs.events import emit
from .controllers import AdmissionState, SignalWindow, admission_step
from .policy import ControlPolicy

__all__ = ["ControlPlane"]

_LOG_FORMAT_VERSION = 1


class ControlPlane:
    """Tick-driven closed-loop tuner for the serving stack.

    Args:
        policy: the :class:`~repro.control.policy.ControlPolicy`
            envelope (default: ``ControlPolicy()``).
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``control`` events (the owner's configured
            observer).
        gate: the :class:`~repro.resilience.gate.AdmissionGate` to
            tune; its current policy seeds the AIMD state, and its shed
            counts from now on are the window's shed signals.

    Lifecycle: the owner (fabric or simulator) builds the plane, with
    its gate, when its config carries a ``control`` policy, then calls
    :meth:`maybe_tick` once per service opportunity (submission / slot)
    on the submitting thread.  A plane without a gate still ticks but
    never runs the AIMD loop.
    """

    def __init__(
        self,
        policy: Optional[ControlPolicy] = None,
        observer: Optional[object] = None,
        gate=None,
    ):
        self.policy = policy if policy is not None else ControlPolicy()
        self.observer = observer
        self.tick_count = 0
        #: The window the controllers saw at the most recent tick.
        self.window = SignalWindow()
        self._events_since_tick = 0
        self._decisions: List[Dict[str, object]] = []
        self._gate = gate
        # The gate's (high, low) shed totals at the last sample, and
        # the per-tick differences of the last ``window_ticks`` ticks.
        self._shed_seen = (0, 0)
        self._shed_ticks: deque = deque(maxlen=self.policy.window_ticks)
        # The AIMD state (None without a gate).
        self._admission: Optional[AdmissionState] = None
        if gate is not None:
            self._shed_seen = self._gate_sheds()
            burst = gate.policy.burst
            cap = burst - 1.0 if math.isfinite(burst) else math.inf
            self._admission = AdmissionState(
                rate=gate.policy.rate,
                reserve=gate.policy.reserve,
                reserve_cap=cap,
            )

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

    def _gate_sheds(self):
        """The gate's shed totals as ``(priority > 0, the rest)``."""
        gate = self._gate
        high = sum(c for p, c in gate.shed_by_priority.items() if p > 0)
        return high, gate.shed - high

    def tick(self, queue_depth: int = 0) -> None:
        """Run one control tick: sample, window, decide, actuate.

        The gate's shed counts are sampled synchronously on the calling
        thread, so the resulting window, and therefore every decision,
        is replayable.  Sheds are flows (summed over the window);
        ``queue_depth`` is a level (this tick's sample).
        """
        shed = (0, 0)
        if self._gate is not None:
            seen_high, seen_low = self._shed_seen
            high, low = self._shed_seen = self._gate_sheds()
            shed = (high - seen_high, low - seen_low)
        self._shed_ticks.append(shed)
        window = self.window = SignalWindow(
            shed_high=sum(tick[0] for tick in self._shed_ticks),
            shed_low=sum(tick[1] for tick in self._shed_ticks),
            queue_depth=queue_depth,
        )
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

