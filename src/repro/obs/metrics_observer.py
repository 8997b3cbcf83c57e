"""Metrics subscriber: fold the event stream into a registry.

:class:`MetricsObserver` is the standing-production observer — O(1)
state per metric series, no per-event allocation beyond label lookups.
Its whole metric vocabulary (all ``repro_``-prefixed) is the
declarative table :data:`FAMILIES`: each row registers one family and
names the ``(stage, kind)`` events that feed it and the field that sets
its value.  ``docs/metrics_reference.md`` is generated from the same
table (:mod:`repro.obs.reference`).

Latency histograms use power-of-two nanosecond buckets
(:func:`~repro.obs.metrics.log2_buckets`), fanout histograms use
power-of-two count buckets.

The observer is thread-safe: every event is folded into the registry
under one internal mutex, so networks routing on different threads may
share one observer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .events import Event, Observer
from .metrics import MetricsRegistry, log2_buckets

__all__ = ["Family", "FAMILIES", "MetricsObserver"]

_NS_BUCKETS = log2_buckets(8, 34)  # 256 ns .. ~17 s
_COUNT_BUCKETS = log2_buckets(0, 20)  # 1 .. ~1M


@dataclass(frozen=True)
class Family:
    """One metric family and the events that update it.

    Attributes:
        name / type / help / labels / buckets: the family as registered
            (``type`` is ``"counter"``, ``"gauge"`` or ``"histogram"``).
        events: the ``(stage, kind)`` pairs that update the family.
        value: per event, the counter increment, gauge level or
            histogram observation — a key of ``Event.fields``, a
            constant, or a callable of the event.
        sources: where a label's value comes from when it is not the
            ``fields`` key of the same name — a key or a callable.
        match: ``fields`` values an event must carry to count.
        split_by: the label keyed by the items of a mapping-valued
            ``value`` (one sample per item).
    """

    name: str
    type: str
    help: str
    events: Tuple[Tuple[str, str], ...]
    value: object = 1
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None
    sources: Dict[str, object] = field(default_factory=dict)
    match: Dict[str, object] = field(default_factory=dict)
    split_by: str = ""


def _on(stage: str, *kinds: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((stage, kind) for kind in kinds)


def _kind(event: Event) -> str:
    return event.kind


def _per_frame(key: str):
    """A per-frame field scaled by the submission's payload frames."""
    return lambda e: e.fields[key] * e.fields["frames"]


def _count(key: str):
    return lambda e: len(e.fields[key])


def _by_kind(states: Dict[str, int]):
    """A state gauge level named by the event kind."""
    return lambda e: states[e.kind]


_PLANE_STATES = {"readmitted": 0, "probation": 1, "quarantined": 2}
_REPLICA_STATES = {"up": 0, "draining": 1, "down": 2}
_BREAKER_STATES = {"breaker_closed": 0, "breaker_half_open": 1, "breaker_open": 2}

_DONE = _on("brsmn", "frame_done")
_LEVEL = (("brsmn", "level"), ("fastplan", "level"))
_CACHE = _on(
    "fastplan.plan_cache", "hit", "miss", "evict", "clear", "coalesced"
)
_QUEUE = _on("arrivals", "queue_depth")
_HEAL = "faults.healing"
_GATE = "resilience.gate"
_BREAKER = _on("resilience.breaker", *_BREAKER_STATES)
_ADJUST = _on("control", "adjust")


def _control_gauge(name: str, parameter: str, help: str) -> Family:
    return Family(
        name, "gauge", help, _ADJUST, "new", match={"parameter": parameter}
    )


#: Every family, in registration (and documentation) order.
FAMILIES: Tuple[Family, ...] = (
    Family("repro_frames_total", "counter", "Payload frames routed.",
           _DONE, "frames", ("engine", "mode")),
    Family("repro_deliveries_total", "counter",
           "Verified (output, message) deliveries.",
           _DONE, _per_frame("deliveries")),
    Family("repro_splits_total", "counter",
           "Alpha splits performed by BSN levels.",
           _DONE, _per_frame("splits")),
    Family("repro_switch_ops_total", "counter", "2x2 switch applications.",
           _DONE, _per_frame("switch_ops")),
    Family("repro_frame_ns", "histogram",
           "End-to-end frame routing latency (ns).",
           _DONE, "duration_ns", ("engine",), _NS_BUCKETS),
    Family("repro_frame_fanout", "histogram",
           "Total destinations per routed assignment.",
           _on("brsmn", "frame_start"), "fanout", (), _COUNT_BUCKETS),
    Family("repro_level_ns", "histogram",
           "Per-recursion-level routing/compile latency (ns).",
           _LEVEL, "duration_ns", ("level",), _NS_BUCKETS),
    Family("repro_stage_ns_total", "counter",
           "Cumulative per-stage time within a level (ns).",
           _LEVEL, "stage_ns", ("level", "stage"), split_by="stage"),
    Family("repro_level_splits_total", "counter",
           "Alpha splits per recursion level.",
           _LEVEL, "splits", ("level",)),
    Family("repro_plan_cache_events_total", "counter",
           "Plan cache lookups and evictions by kind.",
           _CACHE, 1, ("kind",), sources={"kind": _kind}),
    Family("repro_plan_cache_size", "gauge",
           "Compiled plans currently cached.",
           _CACHE, "size"),
    Family("repro_queue_depth", "gauge",
           "End-of-slot backlog of the queueing simulator.",
           _QUEUE, "depth"),
    Family("repro_queue_served_total", "counter",
           "Requests served by the queueing simulator.",
           _QUEUE, "served"),
    Family("repro_parallel_coalesced_total", "counter",
           "Plan-cache misses coalesced onto an in-flight compile "
           "(single-flight deduplication).",
           _on("fastplan.plan_cache", "coalesced")),
    Family("repro_faults_injected_total", "counter",
           "Fault activations that touched in-flight traffic, by kind.",
           _on("brsmn", "injected"), 1, ("kind",), sources={"kind": "fault"}),
    Family("repro_faults_detected_total", "counter",
           "Routing passes whose verification found fault casualties.",
           _on(_HEAL, "detected")),
    Family("repro_faults_retries_total", "counter",
           "Repair passes started by the healing layer.",
           _on(_HEAL, "retry")),
    Family("repro_faults_recovered_terminals_total", "counter",
           "Terminals healed by a repair pass.",
           _on(_HEAL, "recovered"), _count("terminals")),
    Family("repro_faults_lost_terminals_total", "counter",
           "Terminals abandoned after the retry budget ran out.",
           _on(_HEAL, "lost"), _count("terminals")),
    Family("repro_faults_quarantines_total", "counter",
           "Times the primary plane entered quarantine.",
           _on("fabric", "quarantined")),
    Family("repro_faults_plane_state", "gauge",
           "Primary plane state (0 healthy, 1 probation, 2 quarantined).",
           _on("fabric", *_PLANE_STATES), _by_kind(_PLANE_STATES)),
    Family("repro_resilience_admitted_total", "counter",
           "Frames admitted by the admission gate, by priority class.",
           _on(_GATE, "admitted"), 1, ("priority",)),
    Family("repro_resilience_shed_total", "counter",
           "Frames shed by the admission gate, by priority class.",
           _on(_GATE, "shed"), 1, ("priority",)),
    Family("repro_resilience_deadline_expired_total", "counter",
           "Healing loops cut short by an expired deadline budget.",
           _on(_HEAL, "deadline_expired")),
    Family("repro_resilience_breaker_transitions_total", "counter",
           "Circuit-breaker state transitions, by destination state.",
           _BREAKER, 1, ("state",),
           sources={"state": lambda e: e.kind[len("breaker_"):]}),
    Family("repro_resilience_breaker_state", "gauge",
           "Circuit-breaker state (0 closed, 1 half_open, 2 open).",
           _BREAKER, _by_kind(_BREAKER_STATES), ("scope",)),
    Family("repro_resilience_short_circuits_total", "counter",
           "Frames short-circuited away from an open breaker's plane.",
           _on("resilience.breaker", "short_circuit")),
    Family("repro_resilience_snapshot_total", "counter",
           "Warm-restart snapshots taken/restored, by action.",
           _on("resilience.snapshot", "snapshot_saved", "snapshot_restored"),
           1, ("action",), sources={"action": _kind}),
    Family("repro_control_ticks_total", "counter",
           "Control-plane ticks evaluated.",
           _on("control", "tick")),
    Family("repro_control_decisions_total", "counter",
           "Actuator adjustments made by the control plane, "
           "by controller and parameter.",
           _ADJUST, 1, ("controller", "parameter")),
    _control_gauge("repro_control_admission_rate", "rate",
                   "Admission refill rate currently set by the AIMD loop."),
    _control_gauge("repro_control_admission_reserve", "reserve",
                   "Priority token reserve currently set by the AIMD loop."),
    _control_gauge("repro_control_worker_target", "worker_target",
                   "Shard worker target currently set by the control plane."),
    _control_gauge("repro_control_backoff_scale", "backoff_scale",
                   "Healing retry-backoff scale currently applied "
                   "(1 = base policy)."),
    Family("repro_cluster_frames_total", "counter",
           "Frames served per cluster replica (including requeued "
           "and spilled-over frames, attributed to the serving "
           "replica).",
           _on("cluster", "submitted", "requeued", "spillover"), 1,
           ("replica",)),
    Family("repro_cluster_requeues_total", "counter",
           "Frames requeued to a sibling after their home replica "
           "died between placement and service (exactly once each).",
           _on("cluster", "requeued")),
    Family("repro_cluster_spillovers_total", "counter",
           "Frames served by a sibling after the home replica's "
           "admission gate shed them.",
           _on("cluster", "spillover")),
    Family("repro_cluster_shed_total", "counter",
           "Frames shed by every candidate replica (never routed).",
           _on("cluster", "shed")),
    Family("repro_cluster_replica_state", "gauge",
           "Replica lifecycle state (0 up, 1 draining, 2 down).",
           _on("cluster", "state"),
           lambda e: _REPLICA_STATES.get(e.fields["state"], 2),
           ("replica",)),
    Family("repro_cluster_replicas_up", "gauge",
           "Replicas currently accepting new placements.",
           _on("cluster", "state"), "up"),
    Family("repro_cluster_restarts_total", "counter",
           "Rolling-restart cycles completed (replica re-admitted).",
           _on("cluster", "readmit")),
    Family("repro_cluster_kills_total", "counter",
           "Replicas torn down without a drain.",
           _on("cluster", "killed")),
    Family("repro_cluster_plans_warmed_total", "counter",
           "Plans warm-restored into restarted replicas from their "
           "drain snapshots.",
           _on("cluster", "restore"), "plans"),
)


_OPS = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def _updater(family: Family, metric):
    """The registry update one matching event applies to ``metric``.

    Everything about the row is resolved here, once, so the closure —
    run for every matching event under the observer lock — only reads
    ``fields`` and calls the sources a row names.
    """
    op = getattr(metric, _OPS[family.type])
    value, split_by = family.value, family.split_by
    field_key = value if isinstance(value, str) else None
    compute = value if callable(value) else None
    keyed = tuple(
        (label, family.sources.get(label, label))
        for label in family.labels
        if label != split_by and not callable(family.sources.get(label))
    )
    computed = tuple(
        (label, source)
        for label, source in family.sources.items()
        if callable(source)
    )
    labelled = bool(keyed or computed)
    match = tuple(family.match.items())

    def update(event: Event) -> None:
        fields = event.fields
        for name, wanted in match:
            if fields[name] != wanted:
                return
        if field_key is not None:
            amount = fields[field_key]
        elif compute is not None:
            amount = compute(event)
        else:
            amount = value
        if not labelled:
            op(amount)
            return
        kw = {}
        for label, name in keyed:
            kw[label] = fields[name]
        for label, source in computed:
            kw[label] = source(event)
        if not split_by:
            op(amount, **kw)
            return
        for item, part in amount.items():
            kw[split_by] = item
            op(part, **kw)

    return update


class MetricsObserver(Observer):
    """Aggregate events into a :class:`MetricsRegistry`.

    Label values come from each event, so one observer may be shared by
    several networks and threads.

    Args:
        registry: registry to populate (default: a private one, exposed
            as :attr:`registry`).
    """

    def __init__(self, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._updates: Dict[Tuple[str, str], list] = {}
        for family in FAMILIES:
            register = getattr(self.registry, family.type)
            if family.type == "histogram":
                metric = register(family.name, family.help, family.labels,
                                  buckets=family.buckets)
            else:
                metric = register(family.name, family.help, family.labels)
            update = _updater(family, metric)
            for key in family.events:
                self._updates.setdefault(key, []).append(update)

    def on_event(self, event: Event) -> None:
        """Apply every family row the event's ``(stage, kind)`` feeds."""
        updates = self._updates.get((event.stage, event.kind))
        if updates is None:
            return
        with self._lock:
            for update in updates:
                update(event)
