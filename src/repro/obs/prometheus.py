"""Prometheus text exposition: renderer and round-trip parser.

:func:`render_prometheus_text` turns a
:class:`~repro.obs.metrics.MetricsRegistry` into the `text exposition
format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(``# HELP`` / ``# TYPE`` headers, one sample per line, histograms in
cumulative ``le`` form).  :func:`parse_prometheus_text` reads that
format back into plain dictionaries — it exists so the test suite can
*round-trip* every export instead of string-comparing against a fragile
golden blob, and doubles as a scrape-debugging helper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["render_prometheus_text", "parse_prometheus_text"]

_INF = float("inf")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def _format_le(bound: float) -> str:
    """Canonical ``le`` label value for a bucket boundary."""
    if bound == _INF:
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry:
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for key, series in metric.samples():
                acc = 0
                for bound, count in zip(
                    metric.buckets + (_INF,), series.counts
                ):
                    acc += count
                    labels = _labels_text(
                        metric.labelnames + ("le",), key + (_format_le(bound),)
                    )
                    lines.append(f"{metric.name}_bucket{labels} {acc}")
                base = _labels_text(metric.labelnames, key)
                lines.append(f"{metric.name}_sum{base} {_num(series.sum)}")
                lines.append(f"{metric.name}_count{base} {series.count}")
        elif metric.kind in ("counter", "gauge"):
            for key, value in metric.samples():
                labels = _labels_text(metric.labelnames, key)
                lines.append(f"{metric.name}{labels} {_num(value)}")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value near {text[eq:]!r}")
        j = eq + 2
        out = []
        while text[j] != '"':
            if text[j] == "\\":
                nxt = text[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[name] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse Prometheus text exposition back into dictionaries.

    Returns:
        ``{family_name: {"type": kind, "help": help_text,
        "samples": [(sample_name, labels_dict, value), ...]}}`` where
        ``sample_name`` keeps histogram suffixes (``_bucket``, ``_sum``,
        ``_count``).  Samples attach to the family whose ``# TYPE``
        declared them; lines before any ``# TYPE`` go under their own
        sample name with type ``"untyped"``.

    Raises:
        ValueError: on a malformed line.
    """
    families: Dict[str, dict] = {}
    current: str = ""

    def family(name: str, kind: str = "untyped") -> dict:
        return families.setdefault(
            name, {"type": kind, "help": "", "samples": []}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            family(name)["help"] = help_text.replace("\\n", "\n").replace(
                "\\\\", "\\"
            )
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            family(name)["type"] = kind.strip()
            current = name
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[: line.index("{")]
            labels_text = line[line.index("{") + 1 : line.rindex("}")]
            labels = _parse_labels(labels_text) if labels_text else {}
            value_text = line[line.rindex("}") + 1 :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
        if not value_text:
            raise ValueError(f"sample line without a value: {raw!r}")
        value = float(value_text)
        owner = current if current and name.startswith(current) else name
        family(owner)["samples"].append((name, labels, value))
    return families
