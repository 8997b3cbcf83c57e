"""Sliding-window signal aggregation for the control plane.

:class:`SignalAggregator` is an :class:`~repro.obs.events.Observer`
that folds the routing stack's event stream into per-tick buckets and
exposes the last ``window_ticks`` of them as one immutable
:class:`SignalWindow` — the *only* input the controllers
(:mod:`repro.control.controllers`) ever see.

Determinism is the design constraint.  A seeded campaign must replay
to a bit-identical decision log, so the window separates its fields
into two classes:

* **decision signals** — event counts incremented on the submitting
  thread (admission decisions, healing retries, lost terminals,
  deadline expiries) plus values the control plane samples
  synchronously at tick time (queue depth, breaker state).  These
  are pure functions of the seed and the arrival trace.
* **advisory signals** — wall-clock serve latency and plan-cache
  hit/miss counts.  Cache events can arrive from another thread
  sharing the plan cache, and latency is wall-clock by definition,
  so controllers MUST NOT consume them; they ride along for
  observability (the ``repro_control_*`` gauges and debugging) only.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..obs.events import Event, Observer

__all__ = ["SignalWindow", "SignalAggregator"]


@dataclass(frozen=True)
class SignalWindow:
    """Immutable signal summary over the last ``window_ticks`` ticks.

    Attributes:
        ticks: control ticks summarised (< ``window_ticks`` during
            warm-up).
        frames: payload frames routed in the window.
        admitted_high: priority > 0 frames admitted by the gate.
        admitted_low: priority <= 0 frames admitted.
        shed_high: priority > 0 frames shed — the signal the AIMD loop
            exists to drive to zero.
        shed_low: priority <= 0 frames shed.
        retries: healing repair passes started.
        lost_terminals: terminals abandoned after the retry budget.
        deadline_expired: healing loops cut short by a deadline budget.
        queue_depth: backlog depth sampled at the most recent tick.
        breaker_half_open: True when the circuit breaker was HALF_OPEN
            at the most recent tick.
        cache_hits: advisory — plan-cache hits observed (may include
            other threads' events; NOT a decision signal).
        cache_misses: advisory — plan-cache misses observed.
        serve_ns: advisory — wall-clock routing nanoseconds observed.
            Excluded from every controller decision and from the
            exported decision log, by design: it is the one
            non-deterministic field.
    """

    ticks: int = 0
    frames: int = 0
    admitted_high: int = 0
    admitted_low: int = 0
    shed_high: int = 0
    shed_low: int = 0
    retries: int = 0
    lost_terminals: int = 0
    deadline_expired: int = 0
    queue_depth: int = 0
    breaker_half_open: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    serve_ns: int = 0

    @property
    def shed(self) -> int:
        """Total frames shed in the window (all priority classes)."""
        return self.shed_high + self.shed_low

    @property
    def admitted(self) -> int:
        """Total frames admitted in the window."""
        return self.admitted_high + self.admitted_low


class _Bucket:
    """One tick's mutable accumulators (reset every tick)."""

    __slots__ = (
        "frames", "admitted_high", "admitted_low", "shed_high", "shed_low",
        "retries", "lost_terminals", "deadline_expired", "queue_depth",
        "breaker_half_open", "cache_hits", "cache_misses", "serve_ns",
    )

    def __init__(self):
        self.frames = 0
        self.admitted_high = 0
        self.admitted_low = 0
        self.shed_high = 0
        self.shed_low = 0
        self.retries = 0
        self.lost_terminals = 0
        self.deadline_expired = 0
        self.queue_depth = 0
        self.breaker_half_open = False
        self.cache_hits = 0
        self.cache_misses = 0
        self.serve_ns = 0


#: The events :meth:`SignalAggregator.on_event` folds into a bucket.
_SIGNAL_EVENTS = frozenset(
    {
        ("brsmn", "frame_done"),
        ("resilience.gate", "admitted"),
        ("resilience.gate", "shed"),
        ("faults.healing", "retry"),
        ("faults.healing", "lost"),
        ("faults.healing", "deadline_expired"),
        ("fastplan.plan_cache", "hit"),
        ("fastplan.plan_cache", "miss"),
    }
)


class SignalAggregator(Observer):
    """Fold the observer event stream into per-tick signal buckets.

    Args:
        window_ticks: buckets retained in the sliding window.

    The aggregator is attached by the control plane as one leg of a
    :class:`~repro.obs.events.CompositeObserver` in front of whatever
    observer the caller configured, so it sees every event the metrics
    and tracing observers see.  Handlers take a lock because a shared
    plan cache can emit from another thread; the *decision*
    signals are only ever written by the submitting thread, which is
    what keeps the windows replayable.
    """

    def __init__(self, window_ticks: int = 4):
        if window_ticks < 1:
            raise ValueError(
                f"window_ticks must be >= 1, got {window_ticks}"
            )
        self._lock = threading.Lock()
        self._current = _Bucket()
        self._buckets: deque = deque(maxlen=window_ticks)

    # -- the event handler (folds into the current bucket) ---------------
    def on_event(self, event: Event) -> None:
        """Count routed frames, admission decisions, healing retries,
        lost terminals and deadline expiries; accumulate the advisory
        serve time and plan-cache hits / misses (never decision
        inputs).  Every other event is ignored."""
        key = (event.stage, event.kind)
        if key not in _SIGNAL_EVENTS:
            return
        fields = event.fields
        with self._lock:
            cur = self._current
            if key == ("brsmn", "frame_done"):
                cur.frames += fields["frames"]
                cur.serve_ns += fields["duration_ns"]
            elif key == ("resilience.gate", "admitted"):
                if fields["priority"] > 0:
                    cur.admitted_high += 1
                else:
                    cur.admitted_low += 1
            elif key == ("resilience.gate", "shed"):
                if fields["priority"] > 0:
                    cur.shed_high += 1
                else:
                    cur.shed_low += 1
            elif key == ("faults.healing", "retry"):
                cur.retries += 1
            elif key == ("faults.healing", "lost"):
                cur.lost_terminals += len(fields["terminals"])
            elif key == ("faults.healing", "deadline_expired"):
                cur.deadline_expired += 1
            elif key == ("fastplan.plan_cache", "hit"):
                cur.cache_hits += 1
            elif key == ("fastplan.plan_cache", "miss"):
                cur.cache_misses += 1

    # -- tick boundary ---------------------------------------------------
    def close_tick(
        self,
        queue_depth: int = 0,
        breaker_half_open: bool = False,
    ) -> None:
        """Seal the current bucket with tick-time samples; start a new one.

        Called by the control plane once per tick, on the submitting
        thread, with the values it sampled synchronously: the owner's
        backlog depth and whether the breaker is currently HALF_OPEN.
        """
        with self._lock:
            cur = self._current
            cur.queue_depth = queue_depth
            cur.breaker_half_open = breaker_half_open
            self._buckets.append(cur)
            self._current = _Bucket()

    def window(self) -> SignalWindow:
        """The closed buckets summarised as one :class:`SignalWindow`.

        Counts are summed over the window; ``queue_depth`` and
        ``breaker_half_open`` carry the most recent tick's sample (they
        are levels, not flows).
        """
        with self._lock:
            buckets = list(self._buckets)
        if not buckets:
            return SignalWindow()
        last = buckets[-1]
        return SignalWindow(
            ticks=len(buckets),
            frames=sum(b.frames for b in buckets),
            admitted_high=sum(b.admitted_high for b in buckets),
            admitted_low=sum(b.admitted_low for b in buckets),
            shed_high=sum(b.shed_high for b in buckets),
            shed_low=sum(b.shed_low for b in buckets),
            retries=sum(b.retries for b in buckets),
            lost_terminals=sum(b.lost_terminals for b in buckets),
            deadline_expired=sum(b.deadline_expired for b in buckets),
            queue_depth=last.queue_depth,
            breaker_half_open=last.breaker_half_open,
            cache_hits=sum(b.cache_hits for b in buckets),
            cache_misses=sum(b.cache_misses for b in buckets),
            serve_ns=sum(b.serve_ns for b in buckets),
        )
