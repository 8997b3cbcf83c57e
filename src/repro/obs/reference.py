"""Generate the metrics reference documentation from the registry.

``docs/metrics_reference.md`` documents every ``repro_*`` metric family
the :class:`~repro.obs.metrics_observer.MetricsObserver` exports.  To
keep the page from drifting out of sync with the code, the table is not
written by hand: :func:`metrics_reference_markdown` renders it from a
freshly constructed observer's registry — the single source of truth —
and ``tests/docs/test_docs.py`` asserts the committed page contains
exactly that rendering between the ``BEGIN/END GENERATED`` markers.

Regenerate the page after changing the metric vocabulary::

    python -m repro.obs docs/metrics_reference.md

(the command line lives in :mod:`repro.obs.__main__`).
"""

from __future__ import annotations

import math
from typing import List

from .metrics import Histogram
from .metrics_observer import MetricsObserver

__all__ = ["metrics_reference_markdown", "update_generated_section"]

BEGIN_MARK = "<!-- BEGIN GENERATED: metrics table (repro/obs/reference.py) -->"
END_MARK = "<!-- END GENERATED -->"


def _bucket_scheme(histogram: Histogram) -> str:
    """Human description of a histogram's bucket boundaries."""
    bounds = histogram.buckets
    exps = []
    for b in bounds:
        e = math.log2(b) if b > 0 else None
        if e is None or e != int(e):
            return f"{len(bounds)} fixed boundaries"
        exps.append(int(e))
    if all(b - a == 1 for a, b in zip(exps, exps[1:])):
        return f"log2: 2^{exps[0]} .. 2^{exps[-1]} (+Inf)"
    return f"{len(bounds)} power-of-two boundaries"


def metrics_reference_markdown() -> str:
    """The generated metrics table, one row per registered family.

    Instantiates a fresh :class:`MetricsObserver` so the table reflects
    exactly the families the library registers, in registration order.
    """
    registry = MetricsObserver().registry
    rows: List[str] = [
        "| metric | type | labels | buckets | description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for metric in registry:
        labels = ", ".join(f"`{l}`" for l in metric.labelnames) or "—"
        buckets = (
            _bucket_scheme(metric) if isinstance(metric, Histogram) else "—"
        )
        rows.append(
            f"| `{metric.name}` | {metric.kind} | {labels} "
            f"| {buckets} | {metric.help} |"
        )
    return "\n".join(rows) + "\n"


def update_generated_section(text: str) -> str:
    """Replace the generated block of a metrics_reference.md text.

    Raises:
        ValueError: if the BEGIN/END markers are missing or reversed.
    """
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            f"expected {BEGIN_MARK!r} ... {END_MARK!r} markers in the page"
        )
    head = text[: begin + len(BEGIN_MARK)]
    tail = text[end:]
    return head + "\n" + metrics_reference_markdown() + tail
