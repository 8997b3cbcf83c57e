"""Golden pin of the observer event stream of two seeded campaigns.

Each campaign runs through one :class:`MetricsObserver` plus an
event-counting observer, and the test compares against the committed
``event_stream_golden.json``:

* every counter and gauge sample (families with ``_ns`` in the name
  carry wall-clock values, so only their label sets are pinned);
* each histogram series' sample count (not its sum or buckets);
* the control plane's decision log;
* the total number of events delivered.

Both campaigns are pure functions of their seeds: one worker, no
deadline budget, deterministic fault kinds in the cluster.  Regenerate
the golden file (only on purpose) with::

    PYTHONPATH=src python tests/obs/test_event_stream_golden.py
"""

import json
from pathlib import Path

from repro.cluster import ClusterConfig, FabricCluster
from repro.control import ControlPolicy
from repro.core.arrivals import QueueingSimulator, poisson_arrivals
from repro.core.config import NetworkConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import CompositeObserver, MetricsObserver, Observer
from repro.resilience import AdmissionPolicy
from repro.workloads.random_assignments import random_multicast

GOLDEN = Path(__file__).with_name("event_stream_golden.json")


class EventCounter(Observer):
    """Counts every event delivered, whatever its kind."""

    def __init__(self):
        self.events = 0

    def on_event(self, event):
        self.events += 1


def overload_campaign(observer) -> list:
    """``repro chaos --overload --adaptive --n 64 --seed 7`` (no
    deadline); returns the decision log."""
    n, seed, admit_rate, admit_burst, soft = 64, 7, 1.5, 8.0, 16.0
    cfg = NetworkConfig(
        n,
        engine="fast",
        fault_plan=FaultPlan.random(n, faults=2, seed=seed),
        observer=observer,
        admission=AdmissionPolicy(
            rate=admit_rate,
            burst=admit_burst,
            soft_watermark=soft,
            hard_watermark=32.0,
        ),
        control=ControlPolicy(
            rate_floor=min(0.5, admit_rate),
            rate_ceiling=2.0 * admit_rate,
            reserve_max=admit_burst - 1.0,
            backlog_high=soft,
            backlog_low=soft / 4.0,
        ),
    )
    sim = QueueingSimulator(cfg, retry_policy=RetryPolicy(max_retries=3))
    arrivals = poisson_arrivals(
        n, rate=2.0, slots=64, seed=seed + 1, high_priority_fraction=0.25
    )
    try:
        sim.run(arrivals)
    finally:
        sim.close()
    return sim.control.decision_log()


def cluster_campaign(observer) -> list:
    """``repro cluster --n 64 --replicas 3 --frames 96 --seed 11
    --kill-replica 0@30 --rolling-restart``; returns no decisions."""
    n, seed, frames = 64, 11, 96
    cluster = FabricCluster(
        ClusterConfig(
            replicas=3,
            network=NetworkConfig(n, engine="fast", observer=observer),
            placement_seed=seed,
            drain_frames=4,
        )
    )
    cluster.kill_replica(0, at_frame=30)
    restart = cluster.rolling_restart()
    restart.plan_campaign(frames)
    try:
        for i in range(frames):
            cluster.submit(random_multicast(n, seed=seed + 1 + (i % 8)))
        restart.flush()
    finally:
        cluster.close()
    return []


CAMPAIGNS = {"overload_adaptive": overload_campaign, "cluster_replay": cluster_campaign}


def pinned(registry) -> dict:
    """The replay-deterministic part of a metrics registry."""
    out = {}
    for metric in registry.as_dict()["metrics"]:
        series = {}
        for sample in metric["samples"]:
            key = ",".join(f"{k}={v}" for k, v in sample["labels"].items())
            if metric["type"] == "histogram":
                series[key] = sample["count"]
            elif "_ns" in metric["name"]:
                series[key] = None
            else:
                series[key] = sample["value"]
        out[metric["name"]] = series
    return out


def run_campaign(name: str) -> dict:
    metrics, counter = MetricsObserver(), EventCounter()
    decisions = CAMPAIGNS[name](CompositeObserver(metrics, counter))
    return {
        "metrics": pinned(metrics.registry),
        "decisions": decisions,
        "events": counter.events,
    }


def test_overload_campaign_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert run_campaign("overload_adaptive") == golden["overload_adaptive"]


def test_cluster_campaign_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert run_campaign("cluster_replay") == golden["cluster_replay"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run_campaign(name) for name in CAMPAIGNS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
