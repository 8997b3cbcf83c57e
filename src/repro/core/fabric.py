"""Session-level facade: a multicast switching fabric over many frames.

Networks in this library are frame-oriented (one multicast assignment
in, one delivery map out).  Real deployments — the videoconference /
VoD / replicated-DB scenarios of :mod:`repro.workloads.scenarios` —
route long *sequences* of frames and care about aggregate statistics.
:class:`MulticastFabric` wraps any network implementation with:

* per-frame verification (configurable to raise or record),
* aggregate counters (frames, deliveries, splits, switch operations),
* a fanout histogram,

so examples and benches can express sessions in three lines.

When the config carries resilience settings the fabric also runs the
overload-serving layer (:mod:`repro.resilience`): an
:class:`~repro.resilience.gate.AdmissionGate` in front of ``submit``
(shed frames return a :class:`~repro.resilience.gate.ShedFrame`, never
touch the network) and a per-frame
:class:`~repro.resilience.budget.DeadlineBudget` carried through the
healing retries.  With a fault plan, one
:class:`~repro.faults.health.HealthTracker` decides per frame whether
the primary (faulted) plane serves or the fault-free standby does.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, List

from ..control.plane import ControlPlane
from ..errors import RoutingInvariantError
from ..faults import healing
from ..faults.health import HealthTracker
from ..obs.events import emit
from ..resilience.budget import DeadlineBudget
from ..resilience.gate import AdmissionGate, ShedFrame
from ..resilience.snapshot import FabricSnapshot
from .brsmn import RoutingResult
from .config import _resolve_config
from .multicast import MulticastAssignment
from .routing import build_network
from .verification import verify_result

__all__ = ["FabricStats", "MulticastFabric"]

_PRIVATE = dict(init=False, repr=False, compare=False)


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

    ``fanout_histogram``, ``splits`` and ``switch_ops`` are read-only
    and folded on read: a frame on a fault-free plane only counts one
    more use of its assignment in a ledger keyed on the assignment's
    memoised ``fanout_counts()`` (never the assignment itself), folded
    early once it holds ``plan_cache_size`` assignments.
    """

    frames: int = 0
    deliveries: int = 0
    failures: List[str] = field(default_factory=list)
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
    # The ledger, id(fanout) -> [fanout, splits, switch_ops, frames],
    # and the folded [fanout_histogram, splits, switch_ops].
    _pending: dict = field(default_factory=dict, **_PRIVATE)
    _totals: list = field(
        default_factory=lambda: [Counter(), 0, 0], **_PRIVATE
    )
    _fold_at: int = field(default=256, **_PRIVATE)

    def _count(self, fanout, result) -> None:
        """One more fault-free frame of the assignment whose memoised
        ``fanout_counts()`` is ``fanout``."""
        entry = self._pending.get(id(fanout))
        if entry is not None:
            entry[3] += 1
            return
        if len(self._pending) >= self._fold_at:
            self._fold()
        self._pending[id(fanout)] = [
            fanout, result.total_splits, result.switch_ops, 1
        ]

    def _add(self, fanout, splits: int, switch_ops: int, frames: int = 1):
        """Add ``frames`` frames of one assignment to the totals now."""
        totals = self._totals
        for size, inputs in fanout.items():
            totals[0][size] += inputs * frames
        totals[1] += splits * frames
        totals[2] += switch_ops * frames

    def _fold(self) -> list:
        for entry in self._pending.values():
            self._add(*entry)
        self._pending.clear()
        return self._totals

    fanout_histogram = property(lambda self: self._fold()[0])
    splits = property(lambda self: self._fold()[1])
    switch_ops = property(lambda self: self._fold()[2])

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
    return a :class:`~repro.resilience.gate.ShedFrame`) and
    ``deadline_ms`` gives every frame a
    :class:`~repro.resilience.budget.DeadlineBudget`.  Both default to
    off and cost nothing when unset.

    With ``control`` on the config, a
    :class:`~repro.control.plane.ControlPlane` samples the fabric's
    gate and retunes its admission rate and reserve once per
    submission tick; decisions are
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
        cfg = _resolve_config(n, observer=observer)
        self.config = cfg
        self.network = build_network(cfg)
        self.n = cfg.n
        self.mode = mode
        self.strict = strict
        self.engine = cfg.engine
        self.observer = cfg.observer
        self.stats = self._new_stats()
        # Called after every change of plane health; a cluster's
        # placement memo listens (see repro.cluster.router).
        self.on_health_change = None
        self.deadline_ms = cfg.deadline_ms
        self.gate = (
            None
            if cfg.admission is None
            else AdmissionGate(cfg.admission, observer=cfg.observer)
        )
        self.control = (
            None
            if cfg.control is None
            else ControlPlane(
                cfg.control, observer=cfg.observer, gate=self.gate
            )
        )
        self.retry_policy = retry_policy
        self.health = self.standby = None
        if cfg.fault_plan is not None and not cfg.fault_plan.is_empty:
            if retry_policy is None:
                self.retry_policy = healing.RetryPolicy()
            self.health = health if health is not None else HealthTracker()
            self.standby = build_network(replace(cfg, fault_plan=None))
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
            return self._submit_healed(assignment)
        result = self._submit_verified(assignment, self.standby)
        self.stats.standby_frames += 1
        self._record_health(False)
        return result

    def _submit_verified(self, assignment, network) -> RoutingResult:
        """The plain path: route on ``network``, verify, account."""
        result = network.route(assignment, mode=self.mode)
        report = verify_result(result)
        stats = self.stats
        if not report.ok:
            msg = f"frame {stats.frames}: " + "; ".join(report.violations)
            if self.strict:
                raise RoutingInvariantError(msg)
            stats.failures.append(msg)
        stats.frames += 1
        stats.deliveries += report.deliveries
        hit = result.plan_cache_hit
        if hit:
            stats.plan_cache_hits += 1
        elif hit is False:
            stats.plan_cache_misses += 1
        stats._count(assignment.fanout_counts(), result)
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
        )
        stats = self.stats
        stats.frames += 1
        stats.deliveries += result.verification.deliveries
        stats.plan_cache_hits += result.plan_cache_hits
        stats.plan_cache_misses += result.plan_cache_misses
        stats._add(
            assignment.fanout_counts(), result.total_splits, result.switch_ops
        )
        stats.recovered_terminals += len(result.recovered)
        if result.degraded:
            stats.degraded_frames += 1
        if result.lost:
            stats.lost_frames += 1
            stats.lost_terminals += len(result.lost)
            stats.failures.append(
                f"frame {stats.frames - 1}: lost terminals "
                f"{list(result.lost)} after {result.attempts} attempts"
            )
        if result.deadline_expired:
            stats.deadline_expired_frames += 1
        self._record_health(result.degraded)
        return result

    def _new_stats(self) -> FabricStats:
        stats = FabricStats()
        stats._fold_at = self.config.plan_cache_size
        return stats

    def _health_changed(self) -> None:
        if self.on_health_change is not None:
            self.on_health_change()

    def _record_health(self, degraded: bool) -> None:
        """Feed one frame into the health tracker; emit transitions."""
        before = self.health.state
        after = self.health.record(degraded)
        self.stats.quarantines = self.health.quarantines
        if after is not before:
            kind = "readmitted" if after.value == "healthy" else after.value
            emit(self.observer, "fabric", kind)
            self._health_changed()

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
        cache's assignments plus health state."""
        return FabricSnapshot.capture(self)

    def restore(self, snap) -> int:
        """Adopt a :class:`~repro.resilience.snapshot.FabricSnapshot`:
        recompile its cached assignments on *this* fabric's compiler and
        restore health state.  Returns the number of plans
        warmed."""
        return snap.restore(self)

    def reset(self) -> None:
        """Clear the session statistics and health state (the network
        itself is stateless)."""
        self.stats = self._new_stats()
        if self.health is not None:
            self.health = HealthTracker(
                fail_threshold=self.health.fail_threshold,
                quarantine_frames=self.health.quarantine_frames,
                probe_frames=self.health.probe_frames,
            )
            self._health_changed()
