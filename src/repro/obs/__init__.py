"""Observability layer: metrics, lifecycle tracing, profiling hooks.

The routing stack is instrumented with *pay-for-what-you-use* hooks:
pass any :class:`Observer` to
:class:`~repro.core.config.NetworkConfig` (or directly to
:class:`~repro.core.fabric.MulticastFabric` /
:class:`~repro.core.brsmn.BRSMN` /
:class:`~repro.core.arrivals.QueueingSimulator`) and every layer
reports to its :meth:`Observer.on_event` one :class:`Event` per thing
that happened — frame lifecycle, per-recursion-level profiling spans,
plan-cache outcomes, faults, overload and cluster decisions — tagged
with the ``(stage, kind)`` that names it.  With no observer — or a
:class:`NullSink` — the hot path pays one attribute test per frame.

Three subscribers ship with the library:

* :class:`MetricsObserver` — folds events into a
  :class:`MetricsRegistry` (counters, gauges, log-bucketed
  histograms), exportable as Prometheus text or JSON;
* :class:`TracingObserver` — records the raw event stream and
  reconstructs per-frame :class:`FrameTimeline` objects with
  per-level, per-stage spans;
* :class:`NullSink` — keeps the plumbing attached but dormant.

Quick start::

    from repro import MulticastFabric, NetworkConfig
    from repro.obs import MetricsObserver

    obs = MetricsObserver()
    fabric = MulticastFabric(NetworkConfig(64, engine="fast", observer=obs))
    fabric.run(frames)
    print(obs.registry.to_prometheus_text())
"""

from .events import CompositeObserver, Event, NullSink, Observer
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, log2_buckets
from .metrics_observer import MetricsObserver
from .prometheus import parse_prometheus_text, render_prometheus_text
from .reference import metrics_reference_markdown
from .tracing import FrameTimeline, TracingObserver

__all__ = [
    "CompositeObserver",
    "Event",
    "NullSink",
    "Observer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log2_buckets",
    "MetricsObserver",
    "metrics_reference_markdown",
    "parse_prometheus_text",
    "render_prometheus_text",
    "FrameTimeline",
    "TracingObserver",
]
