"""Command-line interface: route, inspect and reproduce from the shell.

Usage (after ``pip install -e .``)::

    python -m repro route --n 8 --assign '{"0":[0,1],"2":[3,4,7],"3":[2],"7":[5,6]}'
    python -m repro route --n 8 --example --trace
    python -m repro stats --n 64 --frames 200 --engine fast --metrics-out metrics.json
    python -m repro stats --n 256 --frames 500 --workload random
    python -m repro chaos --n 32 --frames 100 --faults 2 --seed 7
    python -m repro chaos --n 64 --overload --arrival-rate 2.0 --deadline-ms 50
    python -m repro chaos --n 64 --overload --adaptive --seed 7 \\
        --control-log decisions.json --summary-out summary.json
    python -m repro tags --n 8 --dests 3,4,7
    python -m repro structure --n 64
    python -m repro table2 --sizes 8,64,512
    python -m repro schedule --n 32

Subcommands:

* ``route`` — route one multicast assignment (JSON mapping of input ->
  destinations, or ``--example`` for the paper's Fig. 2 assignment)
  through the chosen implementation/engine; prints the verified
  delivery map, optionally the stage trace.
* ``stats`` — run an *observed* session over a workload: attaches a
  metrics + tracing observer, prints session statistics and a
  per-level profile, and exports the metrics registry as JSON
  (``--metrics-out``) and/or Prometheus text (``--prom-out``).
* ``chaos`` — run a seeded fault-injection campaign: a random
  :class:`~repro.faults.plan.FaultPlan` is injected, every frame is
  routed through the self-healing fabric, and the campaign reports
  delivered / recovered / lost terminal counts plus plane health.
  With ``--overload``, the campaign instead drives a Poisson arrival
  stream at a multiple of service capacity through the queueing
  simulator with an admission gate and per-slot deadline, reporting
  the full admitted / shed / delivered / recovered / lost accounting.
  ``--adaptive`` runs the closed-loop control plane over the campaign
  (AIMD admission rate and priority reserve); its
  decision log replays bit-identically for a given seed and can be
  exported with ``--control-log``.
* ``tags`` — print a destination set's tag tree SEQ (Section 7.1).
* ``structure`` — print a network's structural audit (switches, depth,
  per-level composition).
* ``table2`` — print the paper's Table 2 with measured values.
* ``schedule`` — print the feedback network's frame timing schedule.

The CLI is intentionally thin: each subcommand calls the same public
API the library exposes, so it doubles as executable documentation.

Exit codes (the contract scripts and CI rely on):

* ``0`` — success: routing verified, campaign fully served.
* ``1`` — verification or reproduction failure (``route``, ``report``).
* ``2`` — usage or I/O error (bad arguments, unreadable input,
  unwritable output path).
* ``3`` — degraded ``chaos`` or ``cluster`` campaign: terminals were
  lost (or requests abandoned under ``--overload``) after the retry
  budget, or the accounting is incomplete.  The campaign itself ran
  to completion — distinguish this from ``2``, which means it never
  ran.  Deliberately *shed* requests do not trigger ``3``: shedding
  is the admission gate doing its job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .analysis.tables import format_table
from .baselines.models import PAPER_TABLE2
from .core.config import NetworkConfig
from .core.multicast import MulticastAssignment, paper_example_assignment
from .core.routing import build_network, route_multicast
from .core.tagtree import TagTree
from .core.tags import format_tag_string
from .hardware.cost import CostModel
from .hardware.schedule import build_frame_schedule
from .hardware.timing import TimingModel
from .viz.ascii import render_assignment, render_delivery, render_trace

__all__ = ["main", "build_parser"]


def _write_text(path: str, text: str) -> Optional[str]:
    """Write an output file, creating parent directories as needed.

    Returns ``None`` on success, or a clean one-line error message
    (instead of letting ``open`` raise a traceback at the user) when
    the path cannot be written.
    """
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return f"cannot write {path}: {exc}"
    return None


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-routing multicast network (BRSMN) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route one multicast assignment")
    p_route.add_argument("--n", type=int, required=True, help="network size")
    p_route.add_argument(
        "--assign",
        type=str,
        default=None,
        help='JSON mapping of input -> destination list, e.g. \'{"0":[1,2]}\'',
    )
    p_route.add_argument(
        "--example",
        action="store_true",
        help="use the paper's Fig. 2 example assignment (n must be 8)",
    )
    p_route.add_argument(
        "--file",
        type=str,
        default=None,
        help="read the assignment from a JSON file "
        "(see repro.core.serialization for the format)",
    )
    p_route.add_argument(
        "--save",
        type=str,
        default=None,
        help="write the routing result to a JSON file",
    )
    p_route.add_argument(
        "--implementation",
        choices=("unrolled", "feedback"),
        default="unrolled",
    )
    p_route.add_argument(
        "--engine",
        choices=("reference", "fast"),
        default="reference",
        help="routing engine (fast = compiled NumPy gather plans)",
    )
    p_route.add_argument(
        "--mode", choices=("selfrouting", "oracle"), default="selfrouting"
    )
    p_route.add_argument(
        "--trace", action="store_true", help="print the stage-by-stage trace"
    )

    p_stats = sub.add_parser(
        "stats",
        help="run an observed workload session and export metrics",
    )
    p_stats.add_argument("--n", type=int, required=True, help="network size")
    p_stats.add_argument(
        "--frames", type=int, default=64, help="frames to route"
    )
    p_stats.add_argument(
        "--workload",
        choices=("hotspot", "random", "suite"),
        default="hotspot",
        help="frame generator (hotspot repeats assignments -> cache hits)",
    )
    p_stats.add_argument(
        "--engine", choices=("reference", "fast"), default="fast"
    )
    p_stats.add_argument(
        "--mode", choices=("selfrouting", "oracle"), default="selfrouting"
    )
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the metrics registry as JSON to this file",
    )
    p_stats.add_argument(
        "--prom-out",
        type=str,
        default=None,
        help="write the metrics in Prometheus text format to this file",
    )
    p_stats.add_argument(
        "--no-profile",
        action="store_true",
        help="skip the per-level profile table",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign with self-healing",
    )
    p_chaos.add_argument("--n", type=int, required=True, help="network size")
    p_chaos.add_argument(
        "--frames", type=int, default=64, help="frames to route"
    )
    p_chaos.add_argument(
        "--faults",
        type=int,
        default=2,
        help="faulty cells to place (seeded; see repro.faults.FaultPlan)",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--engine", choices=("reference", "fast"), default="fast"
    )
    p_chaos.add_argument(
        "--retries",
        type=int,
        default=3,
        help="healing retry budget per frame",
    )
    p_chaos.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the metrics registry as JSON to this file",
    )
    p_chaos.add_argument(
        "--overload",
        action="store_true",
        help="overload campaign: Poisson arrivals above capacity through "
        "the queueing simulator with admission control and deadlines "
        "(--frames then sets the arrival horizon in slots)",
    )
    # Overload-only flags parse to None so plain chaos can reject them;
    # their defaults live in _OVERLOAD_DEFAULTS.
    p_chaos.add_argument(
        "--arrival-rate",
        type=float,
        help="overload: mean arrivals per slot (capacity is ~1 "
        "frame/slot; default 2.0)",
    )
    p_chaos.add_argument(
        "--deadline-ms",
        type=float,
        help="overload: per-slot healing deadline in milliseconds "
        "(default: none)",
    )
    p_chaos.add_argument(
        "--admit-rate",
        type=float,
        help="overload: admission token refill per slot (default 1.5)",
    )
    p_chaos.add_argument(
        "--admit-burst",
        type=float,
        help="overload: admission token bucket capacity (default 8.0)",
    )
    p_chaos.add_argument(
        "--soft-watermark",
        type=float,
        help="overload: backlog depth shedding priority<=0 requests "
        "(default 16.0)",
    )
    p_chaos.add_argument(
        "--hard-watermark",
        type=float,
        help="overload: backlog depth shedding every request "
        "(default 32.0)",
    )
    p_chaos.add_argument(
        "--high-priority",
        type=float,
        help="overload: fraction of arrivals carrying priority 1 "
        "(default 0.25)",
    )
    p_chaos.add_argument(
        "--adaptive",
        action="store_true",
        default=None,
        help="overload: run the closed-loop control plane (AIMD "
        "admission rate and priority reserve) over the campaign "
        "instead of the static gate policy",
    )
    p_chaos.add_argument(
        "--control-log",
        type=str,
        help="overload: write the control plane's decision log as JSON "
        "to this file (requires --adaptive)",
    )
    p_chaos.add_argument(
        "--summary-out",
        type=str,
        default=None,
        help="write the campaign summary (terminal outcomes; under "
        "--overload goodput, per-priority sheds, losses) as JSON to "
        "this file",
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="run a seeded multi-replica cluster campaign "
        "(plan-affinity routing, kills, rolling restarts)",
    )
    p_cluster.add_argument(
        "--n", type=int, required=True, help="network size (per replica)"
    )
    p_cluster.add_argument(
        "--replicas", type=int, default=2, help="fabric replicas"
    )
    p_cluster.add_argument(
        "--frames", type=int, default=64, help="frames to route"
    )
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--placement-seed",
        type=int,
        default=None,
        help="rendezvous placement seed (default: --seed)",
    )
    p_cluster.add_argument(
        "--engine", choices=("reference", "fast"), default="fast"
    )
    p_cluster.add_argument(
        "--distinct",
        type=int,
        default=8,
        help="distinct assignments cycled through the campaign (plan "
        "affinity keeps each one's compiled plan on its home replica)",
    )
    p_cluster.add_argument(
        "--faults",
        type=int,
        default=0,
        help="faulty cells per replica plane (seeded; deterministic "
        "kinds only, so replay and replica count cannot change results)",
    )
    p_cluster.add_argument(
        "--kill-replica",
        action="append",
        default=[],
        metavar="I@FRAME",
        help="crash replica I while frame FRAME is in flight "
        "(repeatable; its frame requeues once to a sibling)",
    )
    p_cluster.add_argument(
        "--rolling-restart",
        action="store_true",
        help="run a rolling restart campaign: each replica drains, "
        "snapshots, warm-restores and re-admits, spread over the run",
    )
    p_cluster.add_argument(
        "--drain-frames",
        type=int,
        default=4,
        help="rolling restart: drain window in cluster submissions",
    )
    p_cluster.add_argument(
        "--admit-rate",
        type=float,
        default=None,
        help="per-replica admission token refill per submit (e.g. 0.5 "
        "models 2x load: half the placements shed at their home gate "
        "and spill over; default: no admission gate)",
    )
    p_cluster.add_argument(
        "--admit-burst",
        type=float,
        default=4.0,
        help="per-replica admission token bucket capacity",
    )
    p_cluster.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the metrics registry as JSON to this file",
    )
    p_cluster.add_argument(
        "--summary-out",
        type=str,
        default=None,
        help="write the replay-deterministic campaign summary as JSON "
        "to this file (two identically-seeded runs are byte-identical)",
    )

    p_tags = sub.add_parser("tags", help="print a multicast's SEQ tag string")
    p_tags.add_argument("--n", type=int, required=True)
    p_tags.add_argument(
        "--dests", type=str, required=True, help="comma-separated outputs"
    )

    p_struct = sub.add_parser("structure", help="network structural audit")
    p_struct.add_argument("--n", type=int, required=True)

    p_t2 = sub.add_parser("table2", help="reproduce the paper's Table 2")
    p_t2.add_argument(
        "--sizes", type=str, default="8,64,512", help="comma-separated sizes"
    )

    p_sched = sub.add_parser("schedule", help="feedback frame timing schedule")
    p_sched.add_argument("--n", type=int, required=True)

    sub.add_parser(
        "report",
        help="recompute every paper claim and print the pass/fail report",
    )
    return parser


def _cmd_route(args) -> int:
    if args.example:
        if args.n != 8:
            print("--example requires --n 8", file=sys.stderr)
            return 2
        assignment = paper_example_assignment()
    elif args.file is not None:
        from .core.serialization import assignment_from_json
        from .errors import InvalidAssignmentError

        try:
            with open(args.file) as fh:
                assignment = assignment_from_json(fh.read())
        except (OSError, InvalidAssignmentError) as exc:
            print(f"bad --file: {exc}", file=sys.stderr)
            return 2
        if assignment.n != args.n:
            print(
                f"file is for n={assignment.n}, but --n {args.n} given",
                file=sys.stderr,
            )
            return 2
    elif args.assign is not None:
        try:
            raw = json.loads(args.assign)
            mapping = {int(k): [int(d) for d in v] for k, v in raw.items()}
            assignment = MulticastAssignment.from_dict(args.n, mapping)
        except (ValueError, KeyError) as exc:
            print(f"bad --assign: {exc}", file=sys.stderr)
            return 2
    else:
        print("provide --assign, --file or --example", file=sys.stderr)
        return 2

    if args.trace and args.engine == "fast":
        print("--trace requires --engine reference", file=sys.stderr)
        return 2
    cfg = NetworkConfig(
        args.n, implementation=args.implementation, engine=args.engine
    )
    result = route_multicast(
        cfg,
        assignment,
        mode=args.mode,
        collect_trace=args.trace,
        strict=False,
    )
    report = result.verification
    if args.save is not None:
        from .core.serialization import result_to_json

        err = _write_text(args.save, result_to_json(result) + "\n")
        if err is not None:
            print(err, file=sys.stderr)
            return 2
        print(f"result written to {args.save}")
    print(render_assignment(assignment))
    print()
    if args.trace and result.trace is not None:
        print(render_trace(result.trace))
        print()
    print(render_delivery(result.outputs))
    print()
    if report.ok:
        print(f"verified: {report.deliveries} deliveries, no blocking")
        print(
            f"alpha splits: {result.total_splits}, "
            f"switch operations: {result.switch_ops}"
        )
        return 0
    print("VERIFICATION FAILED:")
    for v in report.violations:
        print(f"  {v}")
    return 1


def _stats_frames(args):
    """Generate the frame sequence for ``repro stats``."""
    if args.workload == "hotspot":
        from .workloads.hotspot import hotspot_session

        return hotspot_session(args.n, frames=args.frames, seed=args.seed)
    if args.workload == "random":
        from .workloads.random_assignments import random_multicast

        return [
            random_multicast(args.n, seed=args.seed + i)
            for i in range(args.frames)
        ]
    from .workloads.random_assignments import assignment_suite

    suite = assignment_suite(args.n, seed=args.seed)
    return [suite[i % len(suite)] for i in range(args.frames)]


def _cmd_stats(args) -> int:
    from .core.fabric import MulticastFabric
    from .obs import CompositeObserver, MetricsObserver, TracingObserver

    metrics = MetricsObserver()
    tracing = TracingObserver()
    cfg = NetworkConfig(
        args.n,
        engine=args.engine,
        observer=CompositeObserver(metrics, tracing),
    )
    fabric = MulticastFabric(cfg, mode=args.mode)
    try:
        stats = fabric.run(_stats_frames(args))
    finally:
        fabric.close()

    print(f"session: n={args.n} engine={args.engine} workload={args.workload}")
    print(
        f"frames {stats.frames}, deliveries {stats.deliveries}, "
        f"mean fanout {stats.mean_fanout:.2f}"
    )
    print(
        f"alpha splits {stats.splits}, switch operations {stats.switch_ops}"
    )
    if args.engine == "fast":
        print(
            f"plan cache: {stats.plan_cache_hits} hits, "
            f"{stats.plan_cache_misses} misses "
            f"({stats.plan_cache_hit_rate:.0%} hit rate)"
        )
    if not args.no_profile:
        rows = _profile_rows(tracing)
        if rows:
            print()
            print("per-level profile (all frames):")
            print(
                format_table(
                    ["level", "size", "frames", "splits", "ops", "total", "stages"],
                    rows,
                )
            )
    return _export_metrics(args, metrics)


def _export_metrics(args, metrics) -> int:
    """Write ``--metrics-out`` / ``--prom-out`` files, if requested."""
    if args.metrics_out is not None:
        err = _write_text(args.metrics_out, metrics.registry.to_json() + "\n")
        if err is not None:
            print(err, file=sys.stderr)
            return 2
        print(f"\nmetrics JSON written to {args.metrics_out}")
    if getattr(args, "prom_out", None) is not None:
        err = _write_text(
            args.prom_out, metrics.registry.to_prometheus_text()
        )
        if err is not None:
            print(err, file=sys.stderr)
            return 2
        print(f"Prometheus text written to {args.prom_out}")
    return 0


def _finish_campaign(args, metrics, summary, failed) -> int:
    """The shared ending of every campaign command.

    Writes ``--summary-out`` (exit 2 on a write error), exports the
    metrics, then exits 3 when ``failed`` (frames lost or accounting
    incomplete) and 0 otherwise.
    """
    if args.summary_out is not None:
        err = _write_text(
            args.summary_out,
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
        )
        if err is not None:
            print(err, file=sys.stderr)
            return 2
        print(f"campaign summary written to {args.summary_out}")
    rc = _export_metrics(args, metrics)
    if rc == 0 and failed:
        return 3
    return rc


def _profile_rows(tracing) -> list:
    """Aggregate a tracing observer's level spans into table rows."""
    agg = {}
    for tl in tracing.timelines():
        for span in tl.levels:
            f = span.fields
            row = agg.setdefault(
                f["level"], {"size": f["size"], "frames": 0, "splits": 0,
                             "ops": 0, "ns": 0, "stages": {}}
            )
            row["frames"] += 1
            row["splits"] += f["splits"]
            row["ops"] += f["switch_ops"]
            row["ns"] += f["duration_ns"]
            for stage, ns in f["stage_ns"].items():
                row["stages"][stage] = row["stages"].get(stage, 0) + ns
    rows = []
    for level in sorted(agg):
        row = agg[level]
        stages = " ".join(
            f"{stage}={ns / 1e6:.2f}ms"
            for stage, ns in sorted(row["stages"].items())
        )
        rows.append(
            [
                level,
                row["size"],
                row["frames"],
                row["splits"],
                row["ops"],
                f"{row['ns'] / 1e6:.2f}ms",
                stages,
            ]
        )
    return rows


#: ``chaos`` flags only the ``--overload`` campaign reads, with their
#: defaults.  They parse to ``None`` so plain ``chaos`` can reject them.
_OVERLOAD_DEFAULTS = {
    "arrival_rate": 2.0,
    "deadline_ms": None,
    "admit_rate": 1.5,
    "admit_burst": 8.0,
    "soft_watermark": 16.0,
    "hard_watermark": 32.0,
    "high_priority": 0.25,
    "adaptive": False,
    "control_log": None,
}


def _cmd_chaos(args) -> int:
    from .core.fabric import MulticastFabric
    from .faults import FaultPlan, RetryPolicy
    from .obs import MetricsObserver
    from .workloads.random_assignments import random_multicast

    if args.overload:
        for name, default in _OVERLOAD_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        return _cmd_chaos_overload(args)
    given = [
        "--" + name.replace("_", "-")
        for name in _OVERLOAD_DEFAULTS
        if getattr(args, name) is not None
    ]
    if given:
        print(f"{', '.join(given)} require --overload", file=sys.stderr)
        return 2
    plan = FaultPlan.random(args.n, faults=args.faults, seed=args.seed)
    metrics = MetricsObserver()
    cfg = NetworkConfig(
        args.n, engine=args.engine, fault_plan=plan, observer=metrics
    )
    fabric = MulticastFabric(
        cfg, retry_policy=RetryPolicy(max_retries=args.retries)
    )

    print(
        f"chaos campaign: n={args.n} frames={args.frames} "
        f"faults={args.faults} seed={args.seed} engine={args.engine}"
    )
    print()
    print("fault plan:")
    print(
        format_table(
            ["plane", "cell", "links", "kind", "detail"],
            [
                [
                    f.level,
                    f.index,
                    f"{f.positions[0]},{f.positions[1]}",
                    f.kind.value,
                    (
                        f"stuck {'crossed' if f.stuck_setting else 'parallel'}"
                        if f.kind.value == "stuck_at"
                        else f"drop_rate={f.drop_rate}"
                        if f.kind.value == "flaky_link"
                        else "payloads lost"
                    ),
                ]
                for f in plan.faults
            ],
        )
    )
    print()

    delivered = recovered = lost = 0
    for i in range(args.frames):
        assignment = random_multicast(args.n, seed=args.seed + 1 + i)
        result = fabric.submit(assignment)
        terminals = assignment.total_fanout
        if hasattr(result, "outcomes"):  # DegradedResult (primary plane)
            recovered += len(result.recovered)
            lost += len(result.lost)
            delivered += terminals - len(result.recovered) - len(result.lost)
        else:  # RoutingResult (standby plane, fault-free)
            delivered += terminals
    stats = fabric.stats
    print(
        f"frames: {stats.frames} routed, {stats.degraded_frames} degraded, "
        f"{stats.lost_frames} with losses, "
        f"{stats.standby_frames} served by standby"
    )
    print(
        f"terminals: {delivered} delivered, {recovered} recovered, "
        f"{lost} lost"
    )
    # --faults 0 builds no health tracker: the plane never leaves healthy.
    state = "healthy" if fabric.health is None else fabric.health.state.value
    print(f"plane: {stats.quarantines} quarantines, final state {state}")
    summary = {
        "n": args.n,
        "seed": args.seed,
        "faults": args.faults,
        "frames": stats.frames,
        "degraded_frames": stats.degraded_frames,
        "lost_frames": stats.lost_frames,
        "standby_frames": stats.standby_frames,
        "delivered": delivered,
        "recovered": recovered,
        "lost": lost,
        "quarantines": stats.quarantines,
    }
    return _finish_campaign(args, metrics, summary, lost > 0)


def _cmd_chaos_overload(args) -> int:
    """The ``chaos --overload`` campaign: arrivals above capacity.

    Drives a seeded Poisson stream at ``--arrival-rate`` requests per
    slot (service capacity is one packed frame per slot) through a
    fault-injected :class:`~repro.core.arrivals.QueueingSimulator`
    carrying an admission gate and an optional per-slot deadline, then
    prints the complete accounting: every generated request ends in
    exactly one of delivered / recovered / shed / lost.
    """
    from .control import ControlPolicy
    from .core.arrivals import QueueingSimulator, poisson_arrivals
    from .faults import FaultPlan, RetryPolicy
    from .obs import MetricsObserver
    from .resilience import AdmissionPolicy

    if args.control_log is not None and not args.adaptive:
        print("--control-log requires --adaptive", file=sys.stderr)
        return 2
    metrics = MetricsObserver()
    try:
        plan = FaultPlan.random(args.n, faults=args.faults, seed=args.seed)
        admission = AdmissionPolicy(
            rate=args.admit_rate,
            burst=args.admit_burst,
            soft_watermark=args.soft_watermark,
            hard_watermark=args.hard_watermark,
        )
        control = None
        if args.adaptive:
            # The AIMD loop may raise the refill rate up to twice the
            # static gate's, and bank a priority reserve below the
            # bucket's capacity — the static campaign is the floor, not
            # the ceiling.
            control = ControlPolicy(
                rate_floor=min(0.5, args.admit_rate),
                rate_ceiling=2.0 * args.admit_rate,
                reserve_max=max(0.0, args.admit_burst - 1.0),
                backlog_high=args.soft_watermark,
                backlog_low=max(1.0, args.soft_watermark / 4.0),
            )
        cfg = NetworkConfig(
            args.n,
            engine=args.engine,
            fault_plan=plan,
            observer=metrics,
            admission=admission,
            deadline_ms=args.deadline_ms,
            control=control,
        )
        sim = QueueingSimulator(
            cfg, retry_policy=RetryPolicy(max_retries=args.retries)
        )
        arrivals = poisson_arrivals(
            args.n,
            rate=args.arrival_rate,
            slots=args.frames,
            seed=args.seed + 1,
            high_priority_fraction=args.high_priority,
        )
    except ValueError as exc:
        print(f"bad overload campaign parameters: {exc}", file=sys.stderr)
        return 2
    print(
        f"overload campaign: n={args.n} slots={args.frames} "
        f"arrival_rate={args.arrival_rate} faults={args.faults} "
        f"seed={args.seed} engine={args.engine}"
    )
    print(
        f"admission: rate={args.admit_rate}/slot burst={args.admit_burst} "
        f"watermarks={args.soft_watermark}/{args.hard_watermark}"
        + (
            f", deadline={args.deadline_ms}ms"
            if args.deadline_ms is not None
            else ""
        )
        + (" [adaptive]" if args.adaptive else "")
    )
    print()
    try:
        report = sim.run(arrivals)
    finally:
        sim.close()
    generated = len(arrivals)
    delivered = report.served - report.recovered
    lost = report.abandoned
    shed_high = sum(
        c for p, c in sim.gate.shed_by_priority.items() if p > 0
    )
    shed_low = report.shed - shed_high
    print(
        f"requests: {generated} generated, {report.shed} shed at admission"
    )
    print(
        f"outcomes: {delivered} delivered, {report.recovered} recovered "
        f"(after requeue), {report.shed} shed, {lost} lost"
    )
    print(
        f"sheds by priority: {shed_high} high-priority, "
        f"{shed_low} best-effort"
    )
    accounted = delivered + report.recovered + report.shed + lost
    print(
        f"accounting: {accounted}/{generated} requests accounted "
        f"({'complete' if accounted == generated else 'INCOMPLETE'})"
    )
    print(
        f"latency: {report.slots_run} slots run, "
        f"mean wait {report.mean_wait:.2f} slots, "
        f"peak backlog {report.peak_backlog}, "
        f"p95 serve {report.p95_serve_ms:.2f} ms"
    )
    if sim.control is not None:
        decisions = sim.control.decision_log()
        final = sim.gate.policy
        print(
            f"control: {sim.control.tick_count} ticks, "
            f"{len(decisions)} adjustments, final gate "
            f"rate={final.rate:.2f} reserve={final.reserve:.2f}"
        )
        if args.control_log is not None:
            try:
                sim.control.export_decision_log(args.control_log)
            except OSError as exc:
                print(
                    f"cannot write {args.control_log}: {exc}",
                    file=sys.stderr,
                )
                return 2
            print(f"control decision log written to {args.control_log}")
    summary = {
        "n": args.n,
        "seed": args.seed,
        "adaptive": args.adaptive,
        "arrival_rate": args.arrival_rate,
        "generated": generated,
        "goodput": report.served,
        "delivered": delivered,
        "recovered": report.recovered,
        "shed": report.shed,
        "shed_high": shed_high,
        "shed_low": shed_low,
        "lost": lost,
        "slots_run": report.slots_run,
        "decisions": (
            len(sim.control.decision_log()) if sim.control is not None else 0
        ),
    }
    return _finish_campaign(
        args, metrics, summary, lost > 0 or accounted != generated
    )


def _cmd_cluster(args) -> int:
    """The ``cluster`` campaign: K replicas, kills, rolling restarts.

    Routes a seeded frame sequence (``--distinct`` recurring
    assignments, so plan affinity is visible in the hit rate) through a
    :class:`~repro.cluster.FabricCluster`, with optional scheduled
    replica kills, a rolling restart campaign, and per-replica
    admission gates.  Same exit-code contract as ``chaos``: 0 on a
    clean campaign, 2 on bad parameters, 3 when admitted frames were
    lost or the accounting is incomplete (shed frames are accounted,
    never exit 3 by themselves).
    """
    from .cluster import ClusterConfig, FabricCluster
    from .faults import FaultKind, FaultPlan
    from .obs import MetricsObserver
    from .resilience import AdmissionPolicy
    from .workloads.random_assignments import random_multicast

    kills = []
    for spec in args.kill_replica:
        try:
            replica_s, frame_s = spec.split("@", 1)
            kills.append((int(replica_s), int(frame_s)))
        except ValueError:
            print(
                f"bad --kill-replica {spec!r}: expected I@FRAME",
                file=sys.stderr,
            )
            return 2
    placement_seed = (
        args.seed if args.placement_seed is None else args.placement_seed
    )
    metrics = MetricsObserver()
    try:
        plan = None
        if args.faults > 0:
            # Deterministic fault kinds only: flaky-link drop masks are
            # attempt-indexed (per-plane state), which would make the
            # outcome depend on how frames spread over replicas.
            plan = FaultPlan.random(
                args.n,
                faults=args.faults,
                seed=args.seed,
                kinds=[FaultKind.STUCK_AT, FaultKind.DEAD_SWITCH],
            )
        admission = None
        if args.admit_rate is not None:
            admission = AdmissionPolicy(
                rate=args.admit_rate, burst=args.admit_burst
            )
        cfg = NetworkConfig(
            args.n,
            engine=args.engine,
            fault_plan=plan,
            observer=metrics,
            admission=admission,
        )
        cluster = FabricCluster(
            ClusterConfig(
                replicas=args.replicas,
                network=cfg,
                placement_seed=placement_seed,
                drain_frames=args.drain_frames,
            )
        )
    except (TypeError, ValueError) as exc:
        print(f"bad cluster campaign parameters: {exc}", file=sys.stderr)
        return 2
    print(
        f"cluster campaign: n={args.n} replicas={args.replicas} "
        f"frames={args.frames} seed={args.seed} "
        f"placement_seed={placement_seed} engine={args.engine}"
        + (f" faults={args.faults}" if args.faults else "")
        + (
            f" admit_rate={args.admit_rate}"
            if args.admit_rate is not None
            else ""
        )
    )
    restart = None
    try:
        for replica, frame in kills:
            cluster.kill_replica(replica, at_frame=frame)
        if args.rolling_restart:
            restart = cluster.rolling_restart()
            restart.plan_campaign(args.frames)
    except ValueError as exc:
        print(f"bad cluster campaign schedule: {exc}", file=sys.stderr)
        cluster.close()
        return 2
    distinct = max(1, args.distinct)
    try:
        for i in range(args.frames):
            assignment = random_multicast(
                args.n, seed=args.seed + 1 + (i % distinct)
            )
            cluster.submit(assignment)
        if restart is not None:
            restart.flush()
        up_count = cluster.up_count
        summary = dict(cluster.summary())
    finally:
        cluster.close()
    stats = cluster.stats
    generated = args.frames
    accounted = stats.frames + stats.shed_frames
    print()
    print(
        f"frames: {stats.frames} served, {stats.shed_frames} shed, "
        f"{stats.requeues} requeued after a kill, "
        f"{stats.spillovers} spilled over"
    )
    print(
        f"terminals: {stats.deliveries} delivered, "
        f"{stats.recovered_terminals} recovered, "
        f"{stats.lost_terminals} lost"
    )
    print(
        f"plans: {stats.plan_cache_hits} hits, "
        f"{stats.plan_cache_misses} misses "
        f"(hit rate {stats.plan_cache_hit_rate:.2f})"
    )
    print(
        f"lifecycle: {stats.kills} kills, {stats.restarts} restarts, "
        f"{up_count}/{args.replicas} replicas up"
    )
    print(
        f"accounting: {accounted}/{generated} frames accounted "
        f"({'complete' if accounted == generated else 'INCOMPLETE'})"
    )
    summary["seed"] = args.seed
    summary["generated"] = generated
    return _finish_campaign(
        args, metrics, summary,
        stats.lost_frames > 0 or accounted != generated,
    )


def _cmd_tags(args) -> int:
    dests = [int(d) for d in args.dests.split(",") if d.strip() != ""]
    tree = TagTree.from_destinations(args.n, dests)
    tree.validate()
    seq = tree.to_sequence()
    print(f"destinations : {sorted(dests)}")
    m = args.n.bit_length() - 1
    print(f"binary       : {', '.join(format(d, f'0{m}b') for d in sorted(dests))}")
    print(f"SEQ ({len(seq):3d} tags): {format_tag_string(seq)}")
    return 0


def _cmd_structure(args) -> int:
    n = args.n
    net = build_network(n)
    fb = build_network(NetworkConfig(n, implementation="feedback"))
    cm = CostModel()
    rows = []
    size, blocks, level = n, 1, 1
    while size > 2:
        rows.append([level, f"{blocks} x BSN({size})", blocks * 2 * (size // 2) * (size.bit_length() - 1)])
        blocks *= 2
        size //= 2
        level += 1
    rows.append([level, f"{blocks} x 2x2 switch", blocks])
    print(format_table(["level", "components", "switches"], rows))
    print()
    print(f"unrolled: {net.switch_count} switches, depth {net.depth} stages")
    print(
        f"feedback: {fb.switch_count} switches "
        f"({net.switch_count / fb.switch_count:.2f}x cheaper), "
        f"{fb.pass_count} passes"
    )
    print(f"gates (cost model): unrolled {cm.brsmn_gates(n)}, feedback {cm.feedback_gates(n)}")
    return 0


def _cmd_table2(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    print("paper Table 2:")
    print(
        format_table(
            ["network", "cost", "depth", "routing time"],
            [
                [r["network"], r["cost"], r["depth"], r["routing_time"]]
                for r in PAPER_TABLE2
            ],
        )
    )
    print()
    cm = CostModel()
    tm = TimingModel()
    print("measured (this implementation):")
    print(
        format_table(
            ["n", "gates (new)", "gates (feedback)", "depth", "routing time"],
            [
                [
                    n,
                    cm.brsmn_gates(n),
                    cm.feedback_gates(n),
                    cm.brsmn_depth(n),
                    tm.brsmn_routing_time(n),
                ]
                for n in sizes
            ],
        )
    )
    return 0


def _cmd_schedule(args) -> int:
    print(build_frame_schedule(args.n).render())
    return 0


def _cmd_report(_args) -> int:
    from .analysis.report import reproduction_report

    report = reproduction_report()
    print(report.render())
    return 0 if report.ok else 1


_COMMANDS = {
    "route": _cmd_route,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
    "cluster": _cmd_cluster,
    "tags": _cmd_tags,
    "structure": _cmd_structure,
    "table2": _cmd_table2,
    "schedule": _cmd_schedule,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
