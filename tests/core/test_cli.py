"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestRouteCommand:
    def test_example_route(self, capsys):
        assert main(["route", "--n", "8", "--example"]) == 0
        out = capsys.readouterr().out
        assert "verified: 8 deliveries" in out
        assert "output 7 <- input 2" in out

    def test_json_assignment(self, capsys):
        assign = json.dumps({"0": [1, 2], "3": [0]})
        assert main(["route", "--n", "4", "--assign", assign]) == 0
        out = capsys.readouterr().out
        assert "verified: 3 deliveries" in out

    def test_feedback_and_oracle(self, capsys):
        assign = json.dumps({"0": [0, 1, 2, 3]})
        rc = main(
            [
                "route", "--n", "4", "--assign", assign,
                "--implementation", "feedback", "--mode", "oracle",
            ]
        )
        assert rc == 0
        assert "4 deliveries" in capsys.readouterr().out

    def test_trace_flag(self, capsys):
        assert main(["route", "--n", "8", "--example", "--trace"]) == 0
        assert "merge n=8" in capsys.readouterr().out

    def test_example_requires_n8(self, capsys):
        assert main(["route", "--n", "4", "--example"]) == 2

    def test_missing_assignment(self):
        assert main(["route", "--n", "4"]) == 2

    def test_bad_json(self):
        assert main(["route", "--n", "4", "--assign", "{not json"]) == 2

    def test_invalid_assignment_rejected(self, capsys):
        assign = json.dumps({"0": [0], "1": [0]})  # duplicate output
        assert main(["route", "--n", "4", "--assign", assign]) == 2
        assert "bad --assign" in capsys.readouterr().err


class TestTagsCommand:
    def test_fig9b_sequence(self, capsys):
        assert main(["tags", "--n", "8", "--dests", "3,4,7"]) == 0
        assert "a1ae011" in capsys.readouterr().out

    def test_singleton(self, capsys):
        assert main(["tags", "--n", "4", "--dests", "2"]) == 0
        out = capsys.readouterr().out
        assert "SEQ" in out and "3 tags" in out


class TestStructureCommand:
    def test_structure_output(self, capsys):
        assert main(["structure", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "1 x BSN(16)" in out
        assert "8 x 2x2 switch" in out
        assert "feedback" in out


class TestTable2Command:
    def test_table2_output(self, capsys):
        assert main(["table2", "--sizes", "8,64"]) == 0
        out = capsys.readouterr().out
        assert "Nassimi and Sahni's" in out
        assert "n log^2 n" in out
        assert "measured" in out


class TestScheduleCommand:
    def test_schedule_output(self, capsys):
        assert main(["schedule", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "frame schedule" in out
        assert "delivery pass" in out


class TestReportCommand:
    def test_report_passes(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "ALL CLAIMS REPRODUCED" in out


class TestChaosCommand:
    def test_campaign_output(self, capsys):
        rc = main(
            ["chaos", "--n", "16", "--frames", "40",
             "--faults", "2", "--seed", "3"]
        )
        # This seeded campaign ends with lost terminals: the exit-code
        # contract (see repro.cli) reports that as 3, not 0.
        assert rc == 3
        out = capsys.readouterr().out
        assert "chaos campaign: n=16 frames=40 faults=2 seed=3" in out
        assert "fault plan:" in out
        # The seeded plan is deterministic, so the table rows are too.
        assert "dead_switch" in out and "flaky_link" in out
        assert "frames: 40 routed" in out
        assert "terminals:" in out and "lost" in out
        assert "plane:" in out and "quarantines" in out

    def test_deterministic_across_runs(self, capsys):
        args = ["chaos", "--n", "8", "--frames", "10",
                "--faults", "1", "--seed", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_metrics_export(self, tmp_path, capsys):
        out_path = tmp_path / "sub" / "metrics.json"  # parent not created
        rc = main(
            ["chaos", "--n", "8", "--frames", "5", "--faults", "1",
             "--seed", "1", "--metrics-out", str(out_path)]
        )
        assert rc == 0
        assert f"metrics JSON written to {out_path}" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_faults_injected_total" in names
        assert "repro_faults_recovered_terminals_total" in names

    @pytest.mark.parametrize(
        "flag",
        [
            ["--deadline-ms", "50"],
            ["--adaptive"],
            ["--control-log", "log.json"],
            ["--arrival-rate", "3.0"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_overload_only_flags_need_overload(self, flag, capsys):
        rc = main(["chaos", "--n", "8", "--frames", "4", *flag])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{flag[0]} require --overload" in captured.err
        assert captured.out == ""


_CAMPAIGNS = {
    "chaos": ["chaos"],
    "overload": ["chaos", "--overload"],
    "cluster": ["cluster"],
}


class TestCampaignExitContract:
    """Every campaign command ends the same way: summary, metrics, then
    0 (clean), 2 (an output cannot be written) or 3 (frames lost)."""

    @pytest.mark.parametrize("command", sorted(_CAMPAIGNS))
    @pytest.mark.parametrize(
        "faults,unwritable,expected",
        [(0, False, 0), (0, True, 2), (2, False, 3)],
        ids=["clean", "unwritable", "lossy"],
    )
    def test_exit_code(
        self, command, faults, unwritable, expected, tmp_path, capsys
    ):
        (tmp_path / "blocker").write_text("")
        parent = tmp_path / ("blocker" if unwritable else "out")
        summary_path = parent / "summary.json"
        metrics_path = tmp_path / "out" / "metrics.json"
        rc = main(
            _CAMPAIGNS[command]
            + ["--n", "16", "--frames", "8", "--faults", str(faults),
               "--summary-out", str(summary_path),
               "--metrics-out", str(metrics_path)]
        )
        assert rc == expected
        captured = capsys.readouterr()
        if unwritable:
            assert captured.err.startswith(f"cannot write {summary_path}")
            assert not metrics_path.exists()
        else:
            summary = json.loads(summary_path.read_text())
            assert summary["n"] == 16
            assert json.loads(metrics_path.read_text())["metrics"]


class TestMetricsOutPaths:
    def test_stats_creates_parent_directories(self, tmp_path, capsys):
        out_path = tmp_path / "a" / "b" / "metrics.json"
        rc = main(
            ["stats", "--n", "8", "--frames", "3",
             "--metrics-out", str(out_path)]
        )
        assert rc == 0
        assert json.loads(out_path.read_text())["metrics"]

    def test_stats_unwritable_path_is_a_clean_error(self, capsys):
        rc = main(
            ["stats", "--n", "8", "--frames", "3",
             "--metrics-out", "/dev/null/nope/metrics.json"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write /dev/null/nope/metrics.json")
        assert "Traceback" not in err


class TestStatsParallel:
    @pytest.mark.parametrize("command", ["stats", "chaos"])
    def test_workers_flag_removed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "8", "--frames", "3", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_compile_ahead_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--n", "8", "--frames", "3",
                  "--compile-ahead", "2"])
        assert exc.value.code == 2
        assert "--compile-ahead" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])
