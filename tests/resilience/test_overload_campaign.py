"""Acceptance: the seeded overload + fault campaign from the issue.

n=64, 2 injected faults, arrivals at twice the one-frame-
per-slot service capacity.  The campaign must finish with zero
unhandled exceptions, account for every generated request in exactly
one of delivered / recovered / shed / lost, and keep admitted-frame
p95 serve latency within the deadline.
"""

import pytest

from repro import NetworkConfig
from repro.core.arrivals import QueueingSimulator, poisson_arrivals
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import MetricsObserver
from repro.resilience import AdmissionPolicy

N = 64
SLOTS = 64
FAULTS = 2
ARRIVAL_RATE = 2.0  # 2x the one-frame-per-slot capacity
DEADLINE_MS = 250.0
SEED = 2026


@pytest.fixture(scope="module")
def campaign():
    plan = FaultPlan.random(N, faults=FAULTS, seed=SEED)
    metrics = MetricsObserver()
    cfg = NetworkConfig(
        N,
        engine="fast",
        fault_plan=plan,
        observer=metrics,
        admission=AdmissionPolicy(
            rate=1.5, burst=8.0, soft_watermark=16.0, hard_watermark=32.0
        ),
        deadline_ms=DEADLINE_MS,
    )
    sim = QueueingSimulator(cfg, retry_policy=RetryPolicy(max_retries=2))
    arrivals = poisson_arrivals(
        N,
        rate=ARRIVAL_RATE,
        slots=SLOTS,
        seed=SEED + 1,
        high_priority_fraction=0.25,
    )
    try:
        report = sim.run(arrivals)  # any unhandled exception fails here
    finally:
        sim.close()
    return arrivals, report, metrics


class TestAcceptanceCampaign:
    def test_overload_is_real(self, campaign):
        arrivals, report, _ = campaign
        assert len(arrivals) > SLOTS  # offered load above capacity
        assert report.shed > 0  # the gate actually engaged

    def test_every_request_accounted_exactly_once(self, campaign):
        arrivals, report, _ = campaign
        delivered = report.served - report.recovered
        lost = report.abandoned
        accounted = delivered + report.recovered + report.shed + lost
        assert accounted == len(arrivals)

    def test_admitted_p95_latency_respects_the_deadline(self, campaign):
        _, report, _ = campaign
        assert report.serve_ms  # frames were actually served
        assert report.p95_serve_ms <= DEADLINE_MS

    def test_campaign_is_deterministic_in_outcome_counts(self, campaign):
        """Re-running the same seeds reproduces the accounting exactly
        (serve_ms is wall clock and may differ)."""
        arrivals, report, _ = campaign
        plan = FaultPlan.random(N, faults=FAULTS, seed=SEED)
        cfg = NetworkConfig(
            N,
            engine="fast",
            fault_plan=plan,
            admission=AdmissionPolicy(
                rate=1.5, burst=8.0, soft_watermark=16.0, hard_watermark=32.0
            ),
            deadline_ms=DEADLINE_MS,
        )
        sim = QueueingSimulator(cfg, retry_policy=RetryPolicy(max_retries=2))
        try:
            again = sim.run(
                poisson_arrivals(
                    N,
                    rate=ARRIVAL_RATE,
                    slots=SLOTS,
                    seed=SEED + 1,
                    high_priority_fraction=0.25,
                )
            )
        finally:
            sim.close()
        assert again.served == report.served
        assert again.shed == report.shed
        assert again.recovered == report.recovered
        assert again.abandoned == report.abandoned
        assert again.slots_run == report.slots_run

    def test_resilience_metrics_were_emitted(self, campaign):
        _, report, metrics = campaign
        text = metrics.registry.to_prometheus_text()
        assert "repro_resilience_admitted_total" in text
        assert "repro_resilience_shed_total" in text


class TestOverloadCli:
    def test_cli_overload_campaign(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "chaos",
                "--overload",
                "--n", "64",
                "--frames", "64",
                "--faults", "2",
                "--arrival-rate", "2.0",
                "--deadline-ms", "250",
                "--seed", "2026",
            ]
        )
        # 0 (all admitted requests eventually served) or 3 (losses) —
        # never a crash, never a usage error.
        assert rc in (0, 3)
        out = capsys.readouterr().out
        assert "overload campaign: n=64" in out
        assert "accounted (complete)" in out
        assert "shed at admission" in out

    def test_cli_overload_bad_rate_is_usage_error(self, capsys):
        from repro.cli import main

        rc = main(
            ["chaos", "--overload", "--n", "16", "--arrival-rate", "-1"]
        )
        assert rc == 2
