"""Circuit breakers: stop burning retries on a known-bad plane.

The healing loop (:mod:`repro.faults.healing`) pays its full retry
budget on *every* degraded frame — correct for transient faults, pure
waste once a plane is persistently bad.  :class:`CircuitBreaker` is the
standard remedy, frame-synchronous like the rest of the stack::

    CLOSED --(failure_threshold consecutive failures)--> OPEN
    OPEN --(open_frames denied calls)------------------> HALF_OPEN
    HALF_OPEN --(half_open_probes consecutive successes)-> CLOSED
    HALF_OPEN --(any failure)--------------------------> OPEN

While OPEN, :meth:`CircuitBreaker.allow` denies calls (each denial is a
*short circuit* — the caller serves from the standby plane or degrades
immediately instead of retrying into the fault), and the denials
themselves count the cool-down window: after ``open_frames`` of them
the breaker half-opens and lets probe traffic through.  Counters, not
timers, deliberately — the simulator is frame-synchronous, so "time"
is frames, and tests stay deterministic.

The :class:`~repro.core.fabric.MulticastFabric` runs one breaker over
its primary (faulted) plane and couples an opening breaker to
:meth:`~repro.faults.health.HealthTracker.quarantine`, so breaker
verdicts and plane-health bookkeeping agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.events import emit

__all__ = ["BreakerState", "BreakerPolicy", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    """Operating state of one circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Static thresholds of a :class:`CircuitBreaker`.

    Attributes:
        failure_threshold: consecutive failures that trip CLOSED ->
            OPEN (and HALF_OPEN -> OPEN on the first failure).
        open_frames: denied calls the breaker stays OPEN before
            half-opening for probes.
        half_open_probes: consecutive successes required to close from
            HALF_OPEN.
    """

    failure_threshold: int = 3
    open_frames: int = 8
    half_open_probes: int = 2

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.open_frames < 1:
            raise ValueError(
                f"open_frames must be >= 1, got {self.open_frames}"
            )
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """A closed -> open -> half-open breaker over one guarded resource.

    Args:
        policy: thresholds (default :class:`BreakerPolicy`).
        scope: label naming the guarded resource (a fault plane, an
            engine); carried on every emitted event.
        observer: optional :class:`~repro.obs.events.Observer`
            receiving transition and ``short_circuit`` events (stage
            ``resilience.breaker``).

    Protocol: call :meth:`allow` before each attempt (False = short
    circuit, serve elsewhere) and :meth:`record` with the attempt's
    outcome after it.  Denied calls are *not* recorded — they never
    touched the resource.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        scope: str = "",
        observer: Optional[object] = None,
    ):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.scope = scope
        self.observer = observer
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.denied_since_open = 0
        self.probe_successes = 0
        self.opens = 0
        self.closes = 0
        self.short_circuits = 0

    @property
    def is_open(self) -> bool:
        """True while calls are being denied."""
        return self.state is BreakerState.OPEN

    def allow(self) -> bool:
        """Gate one call; False means short-circuit it elsewhere.

        While OPEN, each denial counts toward the cool-down window;
        after ``open_frames`` denials the breaker half-opens and the
        next call is admitted as a probe.
        """
        if self.state is not BreakerState.OPEN:
            return True
        self.denied_since_open += 1
        self.short_circuits += 1
        if self.denied_since_open >= self.policy.open_frames:
            self._transition(BreakerState.HALF_OPEN)
            self.probe_successes = 0
        emit(self.observer, "resilience.breaker", "short_circuit",
             scope=self.scope)
        return False

    def record(self, ok: bool) -> BreakerState:
        """Account one allowed call's outcome; returns the new state."""
        if self.state is BreakerState.CLOSED:
            if ok:
                self.consecutive_failures = 0
            else:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.policy.failure_threshold:
                    self._open()
        elif self.state is BreakerState.HALF_OPEN:
            if ok:
                self.probe_successes += 1
                if self.probe_successes >= self.policy.half_open_probes:
                    self._transition(BreakerState.CLOSED)
                    self.consecutive_failures = 0
                    self.closes += 1
            else:
                self._open()
        # OPEN: a record can only come from a call allowed before the
        # trip; it changes nothing.
        return self.state

    def _open(self) -> None:
        self._transition(BreakerState.OPEN)
        self.opens += 1
        self.denied_since_open = 0
        self.consecutive_failures = 0

    def _transition(self, state: BreakerState) -> None:
        self.state = state
        emit(self.observer, "resilience.breaker", f"breaker_{state.value}",
             scope=self.scope)

    def snapshot(self) -> Dict[str, object]:
        """The breaker's restorable state as plain JSON types."""
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "denied_since_open": self.denied_since_open,
            "probe_successes": self.probe_successes,
            "opens": self.opens,
            "closes": self.closes,
            "short_circuits": self.short_circuits,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt a state previously captured by :meth:`snapshot`."""
        self.state = BreakerState(snapshot["state"])
        self.consecutive_failures = int(snapshot["consecutive_failures"])
        self.denied_since_open = int(snapshot["denied_since_open"])
        self.probe_successes = int(snapshot["probe_successes"])
        self.opens = int(snapshot["opens"])
        self.closes = int(snapshot["closes"])
        self.short_circuits = int(snapshot["short_circuits"])
