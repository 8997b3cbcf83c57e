"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/serving/compare.py \
        --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a results JSON written by ``run.py``.  Give the runs in
the order they were made, alternating which side ran first, so that
``--parent`` file ``i`` and ``--change`` file ``i`` form pair ``i``.
For every workload and end-to-end metric the verdict is:

* ``better`` — at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — not worse, but the parent's own spread is wider
  than the bound, and not every change run beats every parent run;
* ``unchanged`` — otherwise.

``failed_frac`` (shed, lost and wrong frames over frames attempted) is
compared too: any increase is ``worse``.  The exit code is 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def iqr(values) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c_med - p_med) > iqr(parent)
    ):
        return "better"
    if bound == 0:
        return "worse" if sign * (c_med - p_med) < 0 else "unchanged"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr(parent) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def load(paths) -> list:
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("trace"):
            raise SystemExit(f"{path}: a traced run has no end-to-end metrics")
        runs.append(doc)
    return runs


def values(runs, workload: str, metric: str) -> list:
    out = []
    for run in runs:
        res = run["results"][workload]
        out.append(res["metrics"][metric] if metric in res["metrics"] else res["info"][metric])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    spec = json.loads(SPEC_PATH.read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))

    workloads = [
        w for w in parent[0]["results"]
        if all(w in run["results"] for run in parent + change)
    ]
    for side, runs in (("parent", parent), ("change", change)):
        noisy = sum(len(run["noisy_rounds"]) for run in runs)
        if noisy:
            print(f"note: {noisy} noisy round(s) among the {side} runs")
    print(f"{'workload':17s} {'metric':15s} {'parent':>12s} {'change':>12s} {'delta':>8s}  verdict")
    worse = 0
    for w in workloads:
        for name, better, bound in metrics:
            p, c = values(parent, w, name), values(change, w, name)
            v = verdict(p, c, better, bound)
            worse += v == "worse"
            p_med, c_med = statistics.median(p), statistics.median(c)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(f"{w:17s} {name:15s} {p_med:12.6g} {c_med:12.6g} {delta:+8.2%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
