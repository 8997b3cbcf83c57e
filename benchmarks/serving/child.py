"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this script once per workload and round, so every
measurement begins from a cold interpreter and ``setup_s`` includes
importing the program.  The last line of standard output is a JSON
object with the measured facts; ``run.py`` turns those into metrics.

    python3 benchmarks/serving/child.py --workload warm_cluster \
        --seed 1 --seconds 2 [--traced]
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: One call in this many has its output checked against its input.
SAMPLE_EVERY = 16


def thread_count() -> int:
    """Threads of this process right now (Linux ``/proc``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run ``wl``'s closed loop for at least ``seconds``, stopping at
    the first window boundary after that."""
    latencies, served = [], []
    deadline = perf_counter() + seconds
    while True:
        fn, args = wl.next_call()
        if tracer is not None:
            tracer.armed = True
        t0 = perf_counter_ns()
        result = fn(*args)
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.armed = False
        latencies.append(t1 - t0)
        served.append(wl.record(result, len(latencies) % SAMPLE_EVERY == 1))
        # Free the result here: rebinding ``result`` in the next
        # iteration would free it inside that call's timing window.
        del result
        if len(latencies) % wl.window == 0 and perf_counter() >= deadline:
            break
    facts = wl.finish()
    return {
        "window": wl.window,
        "latencies_ns": latencies,
        "served": served,
        "frames_served": sum(served),
        "frames_attempted": len(latencies) * wl.frames_per_call,
        "shed": facts.get("shed", 0),
        "facts": facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads  # the program's import happens here

    import_s = perf_counter() - T_START
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    t0 = perf_counter()
    wl.build()
    setup_s = import_s + perf_counter() - t0

    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
    try:
        report = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            uninstall()

    report.update(
        workload=args.workload,
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        threads=thread_count(),
        failures=wl.failures,
    )
    if tracer is not None:
        report["layers"] = spans.layer_metrics(
            tracer,
            report["frames_attempted"],
            sum(report["latencies_ns"]),
            {k: report["facts"].get(k, 0) for k in ("spillovers", "requeues")},
        )
        OUT.mkdir(exist_ok=True)
        spans.write_jsonl(tracer, OUT / f"trace-{args.workload}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
