"""Seeded campaign goldens: the CLI campaigns' summaries, pinned by value.

Each case runs one seeded campaign command in-process and records its
exit code, its ``--summary-out`` document and, for the adaptive 2x
overload campaign, the sha256 of its ``--control-log``.  The cases are
the ones CI runs: ``chaos`` at n = 16, the four overload-gate
campaigns (1x and 2x arrival rate, static and ``--adaptive``) and the
two ``cluster`` campaigns (the replay pair and the kill + rolling
restart at 2x load).  Replay tests only check that two runs agree;
these check that the values themselves do not move.
``--deadline-ms`` is left out: it makes outcomes depend on wall-clock
time.  ``campaign_goldens.json`` holds the values; regenerate it only
for an intended change of campaign outcomes::

    PYTHONPATH=src python tests/core/test_campaign_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).with_name("campaign_goldens.json")

_OVERLOAD = ["chaos", "--overload", "--n", "64", "--frames", "64",
             "--faults", "2", "--seed", "7"]

CAMPAIGNS = {
    "chaos_n16_s3": ["chaos", "--n", "16", "--frames", "40",
                     "--faults", "2", "--seed", "3"],
    "overload_1x_static": _OVERLOAD + ["--arrival-rate", "1.0"],
    "overload_1x_adaptive": _OVERLOAD + ["--arrival-rate", "1.0",
                                         "--adaptive"],
    "overload_2x_static": _OVERLOAD + ["--arrival-rate", "2.0"],
    "overload_2x_adaptive": _OVERLOAD + ["--arrival-rate", "2.0",
                                         "--adaptive", "--control-log"],
    "cluster_replay_s11": ["cluster", "--n", "64", "--replicas", "3",
                           "--frames", "96", "--seed", "11",
                           "--kill-replica", "0@30", "--rolling-restart"],
    "cluster_2x_s2026": ["cluster", "--n", "64", "--replicas", "3",
                         "--frames", "128", "--seed", "2026",
                         "--kill-replica", "1@40", "--rolling-restart",
                         "--drain-frames", "4", "--admit-rate", "0.5",
                         "--admit-burst", "4.0"],
}


def run_campaign(name: str, out_dir: Path) -> dict:
    """Run one campaign; its exit code, summary and control-log digest."""
    argv = list(CAMPAIGNS[name])
    control_log = out_dir / f"{name}.decisions.json"
    if argv[-1] == "--control-log":
        argv.append(str(control_log))
    summary_path = out_dir / f"{name}.summary.json"
    rc = main(argv + ["--summary-out", str(summary_path)])
    doc = {"rc": rc, "summary": json.loads(summary_path.read_text())}
    if control_log.exists():
        doc["control_log_sha256"] = hashlib.sha256(
            control_log.read_bytes()
        ).hexdigest()
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_golden(name, golden, tmp_path, capsys):
    assert run_campaign(name, tmp_path) == golden[name]
    capsys.readouterr()


def test_golden_covers_every_campaign(golden):
    assert sorted(golden) == sorted(CAMPAIGNS)
    assert "control_log_sha256" in golden["overload_2x_adaptive"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_campaign_goldens.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: run_campaign(name, Path(tmp)) for name in CAMPAIGNS}
    GOLDEN_PATH.write_text(json.dumps(docs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
