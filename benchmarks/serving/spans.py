"""Outside-in per-layer tracing of the serving stack.

:func:`install` wraps the public functions of each layer with span
recorders and returns a callable that puts the originals back.  No
file of the program changes: every wrapper is patched into the
namespace its caller resolves the name in, at the time it calls.

* ``assignment_fingerprint`` and ``verify_result`` are bound into their
  callers' modules at import, so the copies in
  ``repro.cluster.cluster``, ``repro.core.fastplan`` (the one
  ``PlanCache.make_key`` calls) and ``repro.core.fabric`` are patched.
* ``PlanCache.get`` binds ``compile_frame_plan`` as a default
  argument; its wrapper passes the traced compiler explicitly.
* ``route_with_healing`` and ``compile_frame_plan`` are imported
  inside the functions that call them, so patching their modules is
  enough.

A span records its name, start and end (``perf_counter_ns``), the
index of its parent span (-1 at the top) and the id of the frame, that
is the top-level call, it belongs to.  Spans are recorded only while
:attr:`Tracer.armed` is set, which the harness does around each timed
call, so construction, warm-up and checks never appear in a trace.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter_ns

import repro.cluster.cluster as cluster_mod
import repro.core.fabric as fabric_mod
import repro.core.fastplan as fastplan_mod
import repro.core.serialization as serialization_mod
import repro.core.verification as verification_mod
import repro.faults.healing as healing_mod
from repro.cluster.replica import FabricReplica
from repro.cluster.router import ClusterRouter
from repro.core.brsmn import BRSMN
from repro.core.fabric import MulticastFabric
from repro.core.fastplan import FramePlan, PlanCache
from repro.obs.metrics_observer import MetricsObserver
from repro.parallel.plan_cache import ConcurrentPlanCache
from repro.resilience.gate import AdmissionGate
from repro.resilience.snapshot import FabricSnapshot

__all__ = [
    "SPAN_NAMES",
    "Tracer",
    "install",
    "layer_metrics",
    "self_times",
    "write_jsonl",
]

#: Every span name, outermost layer first.
SPAN_NAMES = (
    "cluster.submit",
    "cluster.router.order",
    "cluster.replica.submit",
    "serialization.assignment_fingerprint",
    "fabric.submit",
    "resilience.gate.admit",
    "faults.healing.route_with_healing",
    "brsmn.route",
    "brsmn.route_batch",
    "fastplan.plan_cache.get",
    "fastplan.compile_frame_plan",
    "fastplan.apply",
    "fastplan.apply_batch",
    "verification.verify_result",
    "resilience.snapshot.capture",
    "resilience.snapshot.restore",
    "obs.metrics_observer",
)


class Tracer:
    """In-memory span and counter store for one traced run.

    Span fields are kept in flat ``array`` columns rather than one
    object per span: arrays are invisible to the garbage collector, so
    a long trace does not make every collection — which would land in
    whatever code happens to allocate — slower as it grows.

    Attributes:
        counts: boundary counters (plan-cache hits, healing attempts,
            gate sheds, ...) filled by the wrappers.
        armed: spans and counts are recorded only while True.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.armed = False
        self._names = array("h")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._frames = array("q")
        self._stack: list = []
        self._frame = -1

    @property
    def spans(self) -> list:
        """``(name, start_ns, end_ns, parent, frame)`` tuples, in start
        order; ``parent`` is an index into this list, -1 at the top."""
        return list(
            zip(
                (SPAN_NAMES[i] for i in self._names),
                self._starts,
                self._ends,
                self._parents,
                self._frames,
            )
        )

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a ``name`` span per armed call.

        ``count(args, result)``, when given, updates :attr:`counts`
        after the call returns; it runs outside the span.
        """
        tracer = self
        code = SPAN_NAMES.index(name)
        names, starts, ends = self._names, self._starts, self._ends
        parents, frames, stack = self._parents, self._frames, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            index = len(names)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                tracer._frame += 1
            frames.append(tracer._frame)
            names.append(code)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so a span's children are disjoint and
    inside it; the time they cover is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _patch(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def install(tracer: Tracer):
    """Wrap every layer's public entry; returns a zero-argument undo."""
    undo: list = []
    counts = tracer.counts

    def patch_function(name, fn, *modules):
        traced = tracer.wrap(name, fn)
        for module in modules:
            _patch(undo, module, fn.__name__, traced)
        return traced

    def patch_method(name, cls, attr, count=None):
        _patch(undo, cls, attr, tracer.wrap(name, getattr(cls, attr), count))

    patch_function(
        "serialization.assignment_fingerprint",
        serialization_mod.assignment_fingerprint,
        serialization_mod,
        cluster_mod,
        fastplan_mod,
    )
    patch_function(
        "verification.verify_result",
        verification_mod.verify_result,
        verification_mod,
        fabric_mod,
    )
    traced_compile = patch_function(
        "fastplan.compile_frame_plan",
        fastplan_mod.compile_frame_plan,
        fastplan_mod,
    )

    def count_healing(args, result):
        counts["healing_attempts"] += result.attempts
        counts["healing_recovered"] += len(result.recovered)
        counts["healing_lost"] += len(result.lost)

    _patch(
        undo,
        healing_mod,
        "route_with_healing",
        tracer.wrap(
            "faults.healing.route_with_healing",
            healing_mod.route_with_healing,
            count_healing,
        ),
    )

    patch_method("cluster.submit", cluster_mod.FabricCluster, "submit")
    patch_method("cluster.router.order", ClusterRouter, "order")
    patch_method("cluster.replica.submit", FabricReplica, "submit")
    patch_method("brsmn.route", BRSMN, "route")
    patch_method("brsmn.route_batch", BRSMN, "route_batch")
    patch_method("fastplan.apply", FramePlan, "apply")
    patch_method("fastplan.apply_batch", FramePlan, "apply_batch")
    patch_method("resilience.snapshot.restore", FabricSnapshot, "restore")

    def count_admit(args, admitted):
        counts["gate_decisions"] += 1
        counts["gate_shed"] += not admitted

    patch_method("resilience.gate.admit", AdmissionGate, "admit", count_admit)

    # The standby share is read from the fabric's public counters
    # around each submit.
    fabric_submit = MulticastFabric.submit

    def submit_counted(fabric, *args, **kwargs):
        if not tracer.armed:
            return fabric_submit(fabric, *args, **kwargs)
        stats = fabric.stats
        frames, standby = stats.frames, stats.standby_frames
        result = fabric_submit(fabric, *args, **kwargs)
        stats = fabric.stats
        counts["fabric_frames"] += stats.frames - frames
        counts["fabric_standby"] += stats.standby_frames - standby
        return result

    _patch(
        undo,
        MulticastFabric,
        "submit",
        tracer.wrap("fabric.submit", functools.wraps(fabric_submit)(submit_counted)),
    )

    # Hits and misses are counted here, at the boundary, not from
    # ClusterStats: frames served through the healing path report no
    # plan-cache traffic there.  Evictions are what the call removed.
    for cls in (PlanCache, ConcurrentPlanCache):
        get = cls.get

        def cache_get(cache, assignment, compile_fn=None, extra_key="", _get=get):
            if not tracer.armed:
                return _get(cache, assignment, compile_fn or traced_compile, extra_key)
            before = len(cache)
            plan, hit = _get(cache, assignment, compile_fn or traced_compile, extra_key)
            counts["cache_hits" if hit else "cache_misses"] += 1
            counts["cache_evictions"] += before + (not hit) - len(cache)
            return plan, hit

        _patch(
            undo,
            cls,
            "get",
            tracer.wrap("fastplan.plan_cache.get", functools.wraps(get)(cache_get)),
        )

    capture = FabricSnapshot.__dict__["capture"].__func__
    _patch(
        undo,
        FabricSnapshot,
        "capture",
        classmethod(tracer.wrap("resilience.snapshot.capture", capture)),
    )

    for attr, hook in list(vars(MetricsObserver).items()):
        if attr.startswith("on_") and callable(hook):
            patch_method("obs.metrics_observer", MetricsObserver, attr)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def layer_metrics(tracer: Tracer, frames: int, call_ns: int, cluster: dict) -> dict:
    """The per-layer metrics of one traced run.

    Args:
        tracer: the run's spans and boundary counts.
        frames: frames attempted in the traced calls (the per-frame
            denominator; a 64-frame batch counts 64).
        call_ns: total time of the traced calls, as the harness timed
            them around the top-level call.
        cluster: ``spillovers`` and ``requeues`` read from the
            clusters' public :class:`~repro.cluster.cluster.ClusterStats`.

    Returns:
        ``{name: value}`` over the names ``BENCHMARK.json`` lists under
        ``per_layer`` (all but ``trace.overhead``, which needs the
        untraced run).
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    spans = tracer.spans
    for record, own in zip(spans, self_times(spans)):
        calls[record[0]] += 1
        self_ns[record[0]] += own
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls_per_frame"] = calls[name] / frames
        metrics[f"{name}.self_us_per_frame"] = self_ns[name] / 1e3 / frames
        metrics[f"{name}.self_share"] = self_ns[name] / call_ns

    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update(
        {
            "plan_cache.hit_ratio": ratio(
                c["cache_hits"], c["cache_hits"] + c["cache_misses"]
            ),
            "plan_cache.evictions_per_frame": c["cache_evictions"] / frames,
            "faults.healing.attempts_per_frame": c["healing_attempts"] / frames,
            "faults.healing.recovered_ratio": ratio(
                c["healing_recovered"],
                c["healing_recovered"] + c["healing_lost"],
            ),
            "resilience.gate.shed_ratio": ratio(
                c["gate_shed"], c["gate_decisions"]
            ),
            "cluster.spillover_ratio": cluster["spillovers"] / frames,
            "cluster.requeues": cluster["requeues"],
            "fabric.standby_share": ratio(
                c["fabric_standby"], c["fabric_frames"]
            ),
            "obs.events_per_frame": calls["obs.metrics_observer"] / frames,
            "trace.coverage": sum(self_ns.values()) / call_ns,
        }
    )
    return metrics


def write_jsonl(tracer: Tracer, path) -> None:
    """Write one JSON object per span (with its self time) to ``path``."""
    spans = tracer.spans
    with open(path, "w") as fh:
        for record, own in zip(spans, self_times(spans)):
            name, start, end, parent, frame = record
            fh.write(
                json.dumps(
                    {
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": parent,
                        "frame": frame,
                        "self_ns": own,
                    }
                )
                + "\n"
            )
