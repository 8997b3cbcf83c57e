"""Plane health tracking: quarantine, drain, probe, re-admit.

A fabric that keeps healing the same faulty plane frame after frame is
wasting retry passes.  :class:`HealthTracker` is the session-level
state machine the :class:`~repro.core.fabric.MulticastFabric` runs per
routing plane:

::

    HEALTHY --(fail_threshold consecutive degraded frames)--> QUARANTINED
    QUARANTINED --(quarantine_frames served by the standby)--> PROBATION
    PROBATION --(probe_frames consecutive clean frames)-----> HEALTHY
    PROBATION --(any degraded frame)-----------------------> QUARANTINED

While QUARANTINED the primary (faulted) plane is drained — traffic is
served by the standby plane — and after the drain window the primary is
probed with live frames before being re-admitted.  The thresholds are
deliberately counters, not timers: the simulator is frame-synchronous,
so "time" is frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

__all__ = ["PlaneState", "HealthTracker"]


class PlaneState(str, enum.Enum):
    """Operating state of one routing plane."""

    HEALTHY = "healthy"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass
class HealthTracker:
    """Per-plane failure accounting and quarantine state machine.

    Attributes:
        fail_threshold: consecutive degraded frames that trigger
            quarantine.
        quarantine_frames: frames the plane stays drained before
            probation.
        probe_frames: consecutive clean probation frames required for
            re-admission.
        state: current :class:`PlaneState`.
        consecutive_failures: degraded-frame streak while HEALTHY.
        drained: standby-served frames in the current quarantine.
        clean_probes: clean-frame streak while on PROBATION.
        quarantines: times the plane entered quarantine.
        readmissions: times the plane returned to HEALTHY.
    """

    fail_threshold: int = 3
    quarantine_frames: int = 8
    probe_frames: int = 4
    state: PlaneState = PlaneState.HEALTHY
    consecutive_failures: int = 0
    drained: int = 0
    clean_probes: int = 0
    quarantines: int = 0
    readmissions: int = 0

    def __post_init__(self):
        if self.fail_threshold < 1:
            raise ValueError(
                f"fail_threshold must be >= 1, got {self.fail_threshold}"
            )
        if self.quarantine_frames < 0 or self.probe_frames < 1:
            raise ValueError(
                "quarantine_frames must be >= 0 and probe_frames >= 1, got "
                f"{self.quarantine_frames} / {self.probe_frames}"
            )

    @property
    def use_primary(self) -> bool:
        """True when traffic should run on the (possibly faulty) plane."""
        return self.state is not PlaneState.QUARANTINED

    def record(self, degraded: bool) -> PlaneState:
        """Account one served frame; returns the (possibly new) state.

        Args:
            degraded: whether the frame needed healing or lost
                terminals — meaningful only for frames served by the
                primary plane; pass ``False`` for standby-served frames
                (they drain the quarantine window).
        """
        if self.state is PlaneState.HEALTHY:
            if degraded:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.fail_threshold:
                    self._quarantine()
            else:
                self.consecutive_failures = 0
        elif self.state is PlaneState.QUARANTINED:
            self.drained += 1
            if self.drained >= self.quarantine_frames:
                self.state = PlaneState.PROBATION
                self.clean_probes = 0
        else:  # PROBATION
            if degraded:
                self._quarantine()
            else:
                self.clean_probes += 1
                if self.clean_probes >= self.probe_frames:
                    self.state = PlaneState.HEALTHY
                    self.consecutive_failures = 0
                    self.readmissions += 1
        return self.state

    def snapshot(self) -> Dict[str, object]:
        """The tracker's restorable state as plain JSON types."""
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "drained": self.drained,
            "clean_probes": self.clean_probes,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Adopt a state previously captured by :meth:`snapshot` — a
        restarted fabric then remembers a quarantined plane instead of
        re-learning the fault frame by degraded frame."""
        self.state = PlaneState(snapshot["state"])
        self.consecutive_failures = int(snapshot["consecutive_failures"])
        self.drained = int(snapshot["drained"])
        self.clean_probes = int(snapshot["clean_probes"])
        self.quarantines = int(snapshot["quarantines"])
        self.readmissions = int(snapshot["readmissions"])

    def _quarantine(self) -> None:
        self.state = PlaneState.QUARANTINED
        self.quarantines += 1
        self.drained = 0
        self.consecutive_failures = 0
