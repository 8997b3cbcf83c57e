"""Session-level facade: a multicast switching fabric over many frames.

Networks in this library are frame-oriented (one multicast assignment
in, one delivery map out).  Real deployments — the videoconference /
VoD / replicated-DB scenarios of :mod:`repro.workloads.scenarios` —
route long *sequences* of frames and care about aggregate statistics.
:class:`MulticastFabric` wraps any network implementation with:

* per-frame verification (configurable to raise or record),
* aggregate counters (frames, deliveries, splits, switch operations),
* a running fanout histogram,

so examples and benches can express sessions in three lines.

When the config carries resilience settings the fabric also runs the
overload-serving layer (:mod:`repro.resilience`): an
:class:`~repro.resilience.gate.AdmissionGate` in front of ``submit``
(shed frames return a :class:`~repro.resilience.gate.ShedFrame`, never
touch the network), a per-frame
:class:`~repro.resilience.budget.DeadlineBudget` carried through the
healing retries, and a :class:`~repro.resilience.breaker.CircuitBreaker`
over the primary (faulted) plane that short-circuits it to the standby
— and forces a :class:`~repro.faults.health.HealthTracker` quarantine —
once it trips.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, List

from ..control.plane import control_for
from ..errors import RoutingInvariantError
from ..faults import healing
from ..faults.health import HealthTracker
from ..obs.events import emit
from ..resilience.breaker import CircuitBreaker
from ..resilience.budget import DeadlineBudget
from ..resilience.gate import AdmissionGate, ShedFrame
from ..resilience.snapshot import FabricSnapshot
from .brsmn import RoutingResult
from .config import _resolve_config
from .multicast import MulticastAssignment
from .routing import build_network
from .verification import verify_result

__all__ = ["FabricStats", "MulticastFabric"]


@dataclass
class FabricStats:
    """Aggregate statistics of one fabric session.

    Attributes:
        frames: frames routed.
        deliveries: total verified (output, message) deliveries.
        splits: total alpha splits performed by BSN levels.
        switch_ops: total 2x2 switch applications.
        failures: frames whose verification failed (only populated when
            the fabric is constructed with ``strict=False``).
        fanout_histogram: multicast fanout -> occurrence count.
        plan_cache_hits: fast engine — frames served by a cached
            routing plan.
        plan_cache_misses: fast engine — frames that compiled a plan.
        degraded_frames: fault-aware sessions — frames that needed
            healing (retries) or lost terminals.
        lost_frames: frames that ended with at least one lost terminal.
        recovered_terminals: terminals healed by repair passes.
        lost_terminals: terminals abandoned after the retry budget.
        quarantines: times the primary plane entered quarantine.
        standby_frames: frames served by the standby plane while the
            primary was quarantined.
        shed_frames: frames refused by the admission gate (never
            routed; not counted in ``frames``).
        deadline_expired_frames: frames whose healing loop was cut
            short by the deadline budget.
        short_circuits: frames diverted to the standby plane by an
            open circuit breaker (counted in ``standby_frames`` too).
    """

    frames: int = 0
    deliveries: int = 0
    splits: int = 0
    switch_ops: int = 0
    failures: List[str] = field(default_factory=list)
    fanout_histogram: Counter = field(default_factory=Counter)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    degraded_frames: int = 0
    lost_frames: int = 0
    recovered_terminals: int = 0
    lost_terminals: int = 0
    quarantines: int = 0
    standby_frames: int = 0
    shed_frames: int = 0
    deadline_expired_frames: int = 0
    short_circuits: int = 0

    @property
    def mean_fanout(self) -> float:
        """Average destination-set size over all routed multicasts."""
        total = sum(f * c for f, c in self.fanout_histogram.items())
        count = sum(self.fanout_histogram.values())
        return total / count if count else 0.0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of fast-engine frames answered from the plan cache."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class MulticastFabric:
    """A verified multicast switch running frame sequences.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig`, or a bare port
            count (power of two) for an all-defaults reference network.
            Implementation and engine selection live on the config (the
            fast engine memoises routing plans, so sessions with
            recurring assignments also report plan-cache hits).
        mode: routing mode for every frame.
        strict: when True (default), a verification failure raises
            :class:`~repro.errors.RoutingInvariantError`; when False it
            is recorded in :attr:`FabricStats.failures` and the session
            continues.
        observer: optional :class:`~repro.obs.events.Observer`
            (overrides the config's); every ``submit`` then emits frame
            lifecycle events, level spans and plan-cache events.
        retry_policy: fault-aware sessions — the
            :class:`~repro.faults.healing.RetryPolicy` of the healing
            loop (default: the policy's defaults).
        health: fault-aware sessions — a pre-configured
            :class:`~repro.faults.health.HealthTracker` (default: one
            with its default thresholds).

    Resilience settings live on the config: ``admission`` installs an
    :class:`~repro.resilience.gate.AdmissionGate` (overloaded submits
    return a :class:`~repro.resilience.gate.ShedFrame`), ``deadline_ms``
    gives every frame a
    :class:`~repro.resilience.budget.DeadlineBudget`, and ``breaker``
    (on fault-aware sessions) puts a
    :class:`~repro.resilience.breaker.CircuitBreaker` over the primary
    plane.  All three default to off and cost nothing when unset.

    With ``control`` on the config, a
    :class:`~repro.control.plane.ControlPlane` watches the fabric's
    event stream and retunes the bound actuators (admission rate and
    reserve, retry backoff) once per submission tick; decisions are
    logged on :attr:`MulticastFabric.control` and
    emitted as ``control`` events.
    With ``snapshot_path``, :meth:`close` writes a warm-restart
    :class:`~repro.resilience.snapshot.FabricSnapshot` there and the
    constructor restores from an existing file (a missing file is a
    cold start).

    When the config carries a non-empty fault plan, the fabric runs the
    self-healing layer: every frame submitted to the (faulty) primary
    plane goes through
    :func:`~repro.faults.healing.route_with_healing` and returns a
    :class:`~repro.faults.healing.DegradedResult` — fault losses never
    raise, regardless of ``strict`` (they are accounted, not
    exceptional).  A :class:`~repro.faults.health.HealthTracker`
    quarantines the primary after repeated degraded frames; traffic
    then drains on a fault-free *standby* plane (same config, no fault
    plan) until the primary earns re-admission through clean probes.

    Single-threaded: ``submit`` routes on the calling thread, and one
    thread at a time drives a fabric (its statistics, gate, health
    tracker and control plane are unguarded).  Run one fabric per
    thread to serve from several.
    """

    def __init__(
        self,
        n,
        mode: str = "selfrouting",
        strict: bool = True,
        observer=None,
        retry_policy=None,
        health=None,
    ):
        self.control, cfg = control_for(
            _resolve_config(n, observer=observer)
        )
        self.config = cfg
        self.network = build_network(cfg)
        self.n = cfg.n
        self.mode = mode
        self.strict = strict
        self.engine = cfg.engine
        self.observer = cfg.observer
        self.stats = FabricStats()
        self.deadline_ms = cfg.deadline_ms
        self.gate = (
            None
            if cfg.admission is None
            else AdmissionGate(cfg.admission, observer=cfg.observer)
        )
        self.retry_policy = retry_policy
        self.health = self.standby = self.breaker = None
        if cfg.fault_plan is not None and not cfg.fault_plan.is_empty:
            if retry_policy is None:
                self.retry_policy = healing.RetryPolicy()
            self.health = health if health is not None else HealthTracker()
            self.standby = build_network(replace(cfg, fault_plan=None))
            if cfg.breaker is not None:
                self.breaker = CircuitBreaker(
                    cfg.breaker, scope="primary", observer=cfg.observer
                )
        if self.control is not None:
            self.control.bind(
                gate=self.gate,
                breaker=self.breaker,
                retry_policy=self.retry_policy,
                retry_setter=lambda p: setattr(self, "retry_policy", p),
            )
        self.snapshot_path = cfg.snapshot_path
        self._closed = False
        if self.snapshot_path is not None and os.path.exists(
            self.snapshot_path
        ):
            FabricSnapshot.load(self.snapshot_path).restore(self)

    def submit(self, assignment: MulticastAssignment, priority: int = 0):
        """Route one frame, updating the session statistics.

        Returns a verified
        :class:`~repro.core.brsmn.RoutingResult` — or, when the fabric
        carries a fault plan and the primary plane is serving, a healed
        :class:`~repro.faults.healing.DegradedResult`.  With an
        admission policy on the config, an overloaded submit returns a
        :class:`~repro.resilience.gate.ShedFrame` instead (``ok`` is
        False, nothing was routed); ``priority > 0`` frames survive
        soft shedding and may draw on the token reserve.

        With a control policy on the config, every submission —
        including a shed one — counts toward the control plane's tick
        cadence, so the adaptive loops see overload as it happens.
        """
        # A submit after close() transparently restarts the session,
        # so the next close() is live again — it must persist the
        # newly-accumulated state.
        self._closed = False
        if self.control is None:
            return self._submit(assignment, priority)
        try:
            return self._submit(assignment, priority)
        finally:
            self.control.maybe_tick()

    def _submit(self, assignment: MulticastAssignment, priority: int = 0):
        """Admit, select the plane, then route (or heal) and account."""
        if self.gate is not None:
            self.gate.tick()
            if not self.gate.admit(priority=priority):
                self.stats.shed_frames += 1
                return ShedFrame(
                    assignment=assignment,
                    priority=priority,
                    reason=self.gate.last_reason,
                )
        if self.health is None:
            return self._submit_verified(assignment, self.network)
        if self.health.use_primary:
            if self.breaker is None or self.breaker.allow():
                return self._submit_healed(assignment)
            # Open breaker: the primary is short-circuited to the
            # standby without paying a (likely doomed) healed pass.
            self.stats.short_circuits += 1
        result = self._submit_verified(assignment, self.standby)
        self.stats.standby_frames += 1
        self._record_health(False)
        return result

    def _submit_verified(self, assignment, network) -> RoutingResult:
        """The plain path: route on ``network``, verify, account."""
        result = network.route(assignment, mode=self.mode)
        report = verify_result(result)
        if not report.ok:
            msg = (
                f"frame {self.stats.frames}: " + "; ".join(report.violations)
            )
            if self.strict:
                raise RoutingInvariantError(msg)
            self.stats.failures.append(msg)
        self._account(assignment, result, report.deliveries)
        return result

    def _submit_healed(self, assignment):
        """The fault path: heal on the primary plane, track its health."""
        result = healing.route_with_healing(
            self.network,
            assignment,
            mode=self.mode,
            policy=self.retry_policy,
            budget=(
                None
                if self.deadline_ms is None
                else DeadlineBudget(self.deadline_ms)
            ),
            breaker=self.breaker,
        )
        self._account(assignment, result, result.verification.deliveries)
        self.stats.recovered_terminals += len(result.recovered)
        if result.degraded:
            self.stats.degraded_frames += 1
        if result.lost:
            self.stats.lost_frames += 1
            self.stats.lost_terminals += len(result.lost)
            self.stats.failures.append(
                f"frame {self.stats.frames - 1}: lost terminals "
                f"{list(result.lost)} after {result.attempts} attempts"
            )
        if result.deadline_expired:
            self.stats.deadline_expired_frames += 1
        self._record_health(result.degraded)
        if self.breaker is not None:
            was_open = self.breaker.is_open
            self.breaker.record(not result.degraded)
            if self.breaker.is_open and not was_open:
                # A tripped breaker escalates straight to quarantine so
                # traffic drains on the standby during the cooldown.
                before = self.health.state
                after = self.health.quarantine()
                self.stats.quarantines = self.health.quarantines
                if after is not before:
                    emit(self.observer, "fabric", "quarantined")
        return result

    def _account(self, assignment, result, deliveries: int) -> None:
        """Add one routed frame to the session statistics."""
        stats = self.stats
        stats.frames += 1
        stats.deliveries += deliveries
        stats.splits += result.total_splits
        stats.switch_ops += result.switch_ops
        stats.plan_cache_hits += result.plan_cache_hits
        stats.plan_cache_misses += result.plan_cache_misses
        stats.fanout_histogram.update(assignment.fanout_counts())

    def _record_health(self, degraded: bool) -> None:
        """Feed one frame into the health tracker; emit transitions."""
        before = self.health.state
        after = self.health.record(degraded)
        self.stats.quarantines = self.health.quarantines
        if after is not before:
            kind = "readmitted" if after.value == "healthy" else after.value
            emit(self.observer, "fabric", kind)

    def run(self, frames: Iterable[MulticastAssignment]) -> FabricStats:
        """Route a whole frame sequence; returns the session statistics."""
        for assignment in frames:
            self.submit(assignment)
        return self.stats

    def close(self) -> None:
        """End the session: persist the snapshot, then close both planes.

        Idempotent and optional — a closed fabric transparently
        restarts on the next submit.  The standby plane is closed in a
        ``finally`` so a raising primary close still reaches it.  With
        ``snapshot_path`` on the config a warm-restart snapshot is
        written first, so the next fabric constructed with the same
        path restores warm.  A second ``close()`` with no submit in between
        is a no-op: in particular it does *not* re-persist the snapshot
        (a drain manager closing an already-closed fabric must not
        overwrite the file with a post-drain state).
        """
        if self._closed:
            return
        self._closed = True
        if self.snapshot_path is not None:
            self.snapshot().save(self.snapshot_path)
        try:
            close = getattr(self.network, "close", None)
            if close is not None:
                close()
        finally:
            close = getattr(self.standby, "close", None)
            if close is not None:
                close()

    def snapshot(self):
        """Capture a warm-restart
        :class:`~repro.resilience.snapshot.FabricSnapshot` — the plan
        cache's assignments plus health and breaker state."""
        return FabricSnapshot.capture(self)

    def restore(self, snap) -> int:
        """Adopt a :class:`~repro.resilience.snapshot.FabricSnapshot`:
        recompile its cached assignments on *this* fabric's compiler and
        restore health/breaker state.  Returns the number of plans
        warmed."""
        return snap.restore(self)

    def reset(self) -> None:
        """Clear the session statistics and health state (the network
        itself is stateless)."""
        self.stats = FabricStats()
        if self.health is not None:
            self.health = HealthTracker(
                fail_threshold=self.health.fail_threshold,
                quarantine_frames=self.health.quarantine_frames,
                probe_frames=self.health.probe_frames,
            )
