"""Serving benchmark: closed-loop workloads against the public API.

    python3 benchmarks/serving/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--rounds R] [--trace [0|1]] [--out PATH]

Each round runs every selected workload once, one after another, each
in a fresh process (``child.py``), so a noisy period on the host hits
every workload alike.  A child measures ``S / R`` seconds and then
finishes its current window of calls.  ``--trace`` instead
runs each workload twice, untraced and traced, for ``S / 2`` seconds
each, and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (metrics keyed by workload
when more than one workload ran).  The full results, with the pooled
sample counts and the per-round host calibration, go to ``--out``
(default ``benchmarks/serving/out/results-seed<N>[-trace].json``),
which ``compare.py`` reads.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("warm_cluster", "cold_churn", "batch_stream", "faulted_overload")

#: A round whose calibration time is further than this from the run's
#: median is flagged as noisy.
NOISY_ROUND = 0.10
#: Percentile of the window distribution, from its fast side, that the
#: throughput and latency metrics report.
FAST_SIDE = 10


class BenchmarkError(RuntimeError):
    """A child process failed or reported something unusable."""


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python + NumPy loop.

    The loop is not part of the program; it records how fast the host
    ran during a round.  Metrics are never normalised by it.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    data = np.arange(1 << 16, dtype=np.int64)
    for _ in range(40):
        data = np.sort(data[::-1] ^ acc)
    return (perf_counter() - t0) * 1e3


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in a fresh process; return its report."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=60 + 3 * seconds
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def windows(report: dict):
    """``(frames_per_s, p50_us, p90_us)`` of each window of a child's
    calls; a child always stops at a window boundary."""
    latencies = np.asarray(report["latencies_ns"], dtype=np.float64) / 1e3
    served = np.asarray(report["served"])
    size = report["window"]
    for start in range(0, latencies.size, size):
        chunk = latencies[start : start + size]
        p50, p90 = np.percentile(chunk, [50, 90])
        yield served[start : start + size].sum() / chunk.sum() * 1e6, p50, p90


def end_to_end(reports: list) -> tuple:
    """End-to-end metrics and information of one workload's rounds.

    Throughput and latency percentiles are taken per window, and the
    fast-side decile over the windows of every round is reported (the
    90th percentile of window throughputs, the 10th of window
    latencies).  A shared host has stretches of seconds to minutes in
    which everything runs up to half again as slow; that noise only
    ever adds time, so the fast side of the windows is the steadiest
    estimate of what the program itself costs.
    """
    per_window = [w for r in reports for w in windows(r)]
    fps, p50, p90 = (np.array(column) for column in zip(*per_window))
    pooled = np.concatenate([r["latencies_ns"] for r in reports]) / 1e3
    attempted = sum(r["frames_attempted"] for r in reports)
    shed = sum(r["shed"] for r in reports)
    lost = sum(r["facts"].get("lost_frames", 0) for r in reports)
    wrong = sum(len(r["failures"]) for r in reports)
    failed_frac = (shed + lost + wrong) / attempted
    metrics = {
        "frames_per_s": float(np.percentile(fps, 100 - FAST_SIDE)),
        "latency_p50_us": float(np.percentile(p50, FAST_SIDE)),
        "latency_p90_us": float(np.percentile(p90, FAST_SIDE)),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "served_frac": 1.0 - failed_frac,
    }
    info = {
        "latency_p99_us": float(np.percentile(pooled, 99)),
        "samples": int(pooled.size),
        "windows": len(fps),
        "window_calls": reports[0]["window"],
        "failed_frac": failed_frac,
        "frames_attempted": attempted,
        "shed": shed,
        "lost_frames": lost,
        "setup_s_per_round": [r["setup_s"] for r in reports],
        "per_window": [[float(v) for v in w] for w in per_window],
    }
    return metrics, info


def checks(workload: str, reports: list) -> list:
    """Output and accounting checks over every round of a workload."""
    failures = [f for r in reports for f in r["failures"]]
    nproc = os.cpu_count()
    for r in reports:
        if r["threads"] > nproc:
            failures.append(f"{r['threads']} threads on {nproc} cores")
    if workload == "faulted_overload":
        digests = {r["facts"]["digest"] for r in reports}
        if len(digests) != 1:
            failures.append(f"summary digest differs across rounds: {sorted(digests)}")
        for key in ("lost_terminals", "recovered_terminals"):
            if not sum(r["facts"][key] for r in reports):
                failures.append(f"no {key}: the fault layer did no work")
    return failures


def noisy_rounds(calibration: list) -> list:
    """Indices of rounds whose calibration is off the run's median."""
    median = statistics.median(calibration)
    return [i for i, ms in enumerate(calibration) if abs(ms - median) > NOISY_ROUND * median]


def measure(names, seed: int, seconds: float, rounds: int) -> dict:
    """The untraced run: ``rounds`` interleaved rounds of every workload."""
    reports = {name: [] for name in names}
    calibration = []
    for _ in range(rounds):
        calibration.append(calibrate())
        for name in names:
            reports[name].append(run_child(name, seed, seconds / rounds, False))
    results = {}
    for name in names:
        metrics, info = end_to_end(reports[name])
        if name == "faulted_overload":
            info["summary_digest"] = reports[name][0]["facts"]["digest"]
        results[name] = {
            "metrics": metrics,
            "info": info,
            "failures": checks(name, reports[name]),
        }
    return {
        "results": results,
        "host_calibration_ms": calibration,
        "noisy_rounds": noisy_rounds(calibration),
    }


def measure_traced(names, seed: int, seconds: float) -> dict:
    """The traced run: per workload, an untraced and a traced child."""
    results = {}
    calibration = [calibrate()]
    for name in names:
        plain = run_child(name, seed, seconds / 2, False)
        traced = run_child(name, seed, seconds / 2, True)
        fps = [r["frames_served"] / sum(r["latencies_ns"]) for r in (plain, traced)]
        metrics = dict(traced["layers"], **{"trace.overhead": fps[1] / fps[0]})
        results[name] = {
            "metrics": metrics,
            "info": {
                "trace_file": f"out/trace-{name}.jsonl",
                "frames_attempted": plain["frames_attempted"] + traced["frames_attempted"],
            },
            "failures": checks(name, [plain, traced]),
        }
    return {"results": results, "host_calibration_ms": calibration, "noisy_rounds": []}


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measured seconds per workload, over all rounds",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="results JSON path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.rounds < 1 or args.seconds <= 0:
        parser.error("--rounds must be >= 1 and --seconds > 0")
    spec = json.loads(SPEC_PATH.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = args.workload or list(WORKLOAD_NAMES)

    try:
        if args.trace:
            run = measure_traced(names, args.seed, args.seconds)
        else:
            run = measure(names, args.seed, args.seconds, args.rounds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = run["results"]
    for name, res in results.items():
        if set(res["metrics"]) != set(units):
            raise BenchmarkError(
                f"{name}: metrics {sorted(set(res['metrics']) ^ set(units))} "
                "differ from BENCHMARK.json"
            )
        for metric, unit in units.items():
            print(f"{name:17s} {metric:55s} {res['metrics'][metric]:14.6g} {unit}")
        for key, value in res["info"].items():
            if not isinstance(value, list):
                print(f"{name:17s} {key:55s} {value}")
        for failure in res["failures"]:
            print(f"{name:17s} CHECK FAILED: {failure}")
    for i in run["noisy_rounds"]:
        print(f"round {i} noisy: host calibration {run['host_calibration_ms'][i]:.1f} ms")

    failed = sum(len(res["failures"]) for res in results.values())
    out = args.out or HERE / "out" / (
        f"results-seed{args.seed}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            dict(
                seed=args.seed,
                seconds=args.seconds,
                rounds=1 if args.trace else args.rounds,
                trace=args.trace,
                host=host(),
                **run,
            ),
            indent=1,
        )
        + "\n"
    )

    def shaped(metrics):
        return {m: {"value": metrics[m], "unit": units[m]} for m in units}

    if len(names) == 1:
        metrics = shaped(results[names[0]]["metrics"])
    else:
        metrics = {name: shaped(res["metrics"]) for name, res in results.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(
                    res["info"]["frames_attempted"] for res in results.values()
                ),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
