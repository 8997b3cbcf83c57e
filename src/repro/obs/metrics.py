"""Zero-dependency metrics: counters, gauges, log-bucketed histograms.

A :class:`MetricsRegistry` holds named metric families.  Each family
may be labelled; a concrete time series is one ``(family, label
values)`` pair, exactly as in Prometheus' data model:

* :class:`Counter` — monotonically increasing float (``inc``);
* :class:`Gauge` — settable float (``set`` / ``inc``);
* :class:`Histogram` — fixed-boundary bucketed distribution
  (``observe``), defaulting to power-of-two buckets because the
  quantities the routing stack measures — nanosecond latencies, fanouts,
  queue depths — span orders of magnitude (:func:`log2_buckets`).

Export goes two ways: :meth:`MetricsRegistry.to_prometheus_text` (the
Prometheus text exposition format, round-trip-parseable by
:func:`repro.obs.prometheus.parse_prometheus_text`) and
:meth:`MetricsRegistry.to_json` / :meth:`MetricsRegistry.as_dict` (a
stable JSON schema for dashboards and the ``repro stats`` CLI).

Everything is plain Python on purpose — the registry must import (and
export) in environments with nothing but the standard library.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "log2_buckets",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_INF = float("inf")


def log2_buckets(lo_exp: int = 0, hi_exp: int = 32) -> Tuple[float, ...]:
    """Power-of-two histogram boundaries ``2**lo_exp .. 2**hi_exp``.

    Args:
        lo_exp: exponent of the smallest finite boundary.
        hi_exp: exponent of the largest finite boundary (inclusive).

    Returns:
        Ascending boundaries; the implicit ``+Inf`` bucket is added by
        :class:`Histogram` itself.
    """
    if hi_exp < lo_exp:
        raise ValueError(f"hi_exp {hi_exp} < lo_exp {lo_exp}")
    return tuple(float(2**e) for e in range(lo_exp, hi_exp + 1))


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, object]
) -> Tuple[str, ...]:
    if len(labels) == len(labelnames):
        try:
            return tuple([str(labels[name]) for name in labelnames])
        except KeyError:
            pass
    raise ValueError(
        f"expected labels {labelnames}, got {tuple(sorted(labels))}"
    )


class _Metric:
    """Shared bookkeeping of one metric family (name, help, labels)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, value) pairs, insertion-ordered."""
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing metric family."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of one series (0 if never incremented)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def samples(self):
        """(label values, value) pairs, insertion-ordered."""
        return list(self._values.items())


class Gauge(_Metric):
    """A metric family that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        self._values[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the selected series."""
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of one series (0 if never set)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def samples(self):
        """(label values, value) pairs, insertion-ordered."""
        return list(self._values.items())


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, nbuckets: int):
        self.counts = [0] * nbuckets  # per-bucket (non-cumulative) counts
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """A bucketed distribution with fixed ascending boundaries.

    Observation cost is one binary search; export produces the
    Prometheus cumulative form (``le`` buckets + ``+Inf``, ``_sum``,
    ``_count``).

    Args:
        name: family name.
        help: one-line description.
        labelnames: label dimensions.
        buckets: ascending finite boundaries (default
            ``log2_buckets(0, 32)``); values above the last boundary
            land in the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else log2_buckets()))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must ascend, got {bounds}")
        self.buckets: Tuple[float, ...] = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def _get(self, labels) -> _HistogramSeries:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets) + 1)
        return series

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the series selected by ``labels``."""
        series = self._get(labels)
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bucket with boundary >= value
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        series.counts[lo] += 1
        series.sum += value
        series.count += 1

    def count(self, **labels) -> int:
        """Observations recorded in one series."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series.count if series is not None else 0

    def sum(self, **labels) -> float:
        """Sum of observed values in one series."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series.sum if series is not None else 0.0

    def bucket_counts(self, **labels) -> Dict[float, int]:
        """Non-cumulative count per boundary (``inf`` = overflow)."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        counts = series.counts if series is not None else [0] * (len(self.buckets) + 1)
        return dict(zip(self.buckets + (_INF,), counts))

    def samples(self):
        """(label values, series) pairs, insertion-ordered."""
        return list(self._series.items())


class MetricsRegistry:
    """A named collection of metric families.

    Families are created idempotently — asking twice for the same name
    returns the same object, so emission sites need no global state —
    and re-registering a name as a different kind raises.
    """

    def __init__(self):
        self._metrics: "Dict[str, _Metric]" = {}

    def _register(self, cls, name, help, labelnames, **kw) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, labelnames, **kw)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter` family."""
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge` family."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram` family."""
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        """The family registered under ``name`` (None if absent)."""
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ---------------------------------------------------------
    def as_dict(self) -> dict:
        """The registry as a stable JSON-serialisable schema.

        Schema (``version`` 1)::

            {"version": 1,
             "metrics": [
               {"name": ..., "type": "counter" | "gauge" | "histogram",
                "help": ..., "labelnames": [...],
                "samples": [
                  {"labels": {...}, "value": v}                # counter/gauge
                  {"labels": {...}, "count": c, "sum": s,      # histogram
                   "buckets": {"<le>": cumulative_count, ...}}
                ]}]}
        """
        metrics = []
        for metric in self:
            samples = []
            if isinstance(metric, Histogram):
                for key, series in metric.samples():
                    cumulative, acc = {}, 0
                    for bound, c in zip(
                        metric.buckets + (_INF,), series.counts
                    ):
                        acc += c
                        cumulative[_format_le(bound)] = acc
                    samples.append(
                        {
                            "labels": dict(zip(metric.labelnames, key)),
                            "count": series.count,
                            "sum": series.sum,
                            "buckets": cumulative,
                        }
                    )
            else:
                for key, value in metric.samples():
                    samples.append(
                        {
                            "labels": dict(zip(metric.labelnames, key)),
                            "value": value,
                        }
                    )
            metrics.append(
                {
                    "name": metric.name,
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "samples": samples,
                }
            )
        return {"version": 1, "metrics": metrics}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise :meth:`as_dict` to JSON text."""
        return json.dumps(self.as_dict(), indent=indent)

    def to_prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        from .prometheus import render_prometheus_text  # local: avoid cycle

        return render_prometheus_text(self)


def _format_le(bound: float) -> str:
    """Canonical ``le`` label value for a bucket boundary."""
    if bound == _INF:
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)
