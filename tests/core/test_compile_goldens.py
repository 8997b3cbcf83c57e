"""Compiled-plan goldens: the fast compiler's output, pinned by digest.

Each case compiles one assignment (Fig. 2, or a seeded random/hotspot
assignment at n = 64 / 1024), with and without a seeded
:class:`~repro.faults.plan.FaultPlan`, and hashes every field of the
:class:`~repro.core.fastplan.FramePlan` that the compiler derives:
``delivery_src``, ``lost_outputs``, ``flaky_exposure``, ``fault_hits``
and ``bsn_stats``.  A change to the compile kernels that alters any of
them — one switch setting, one dummy label, one stats count — changes
a digest.  ``compile_goldens.json`` holds the digests; regenerate it
only for an intended change of compiled plans::

    PYTHONPATH=src python tests/core/test_compile_goldens.py --write

A cold fabric submit must not build ``BsnFrameStats`` objects: the plan
keeps per-level count matrices and builds the stats tuple only when
``bsn_stats`` is read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import bsn as bsn_mod
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.core.fastplan import compile_frame_plan
from repro.core.multicast import paper_example_assignment
from repro.faults import FaultPlan
from repro.workloads.hotspot import hotspot_multicast
from repro.workloads.random_assignments import random_multicast

GOLDEN_PATH = Path(__file__).with_name("compile_goldens.json")


def _cases():
    """``name -> (assignment, fault_plan or None)``, deterministic."""
    cases = {"fig2": (paper_example_assignment(), None)}
    cases["fig2_faulted"] = (
        paper_example_assignment(),
        FaultPlan.random(8, faults=4, seed=2),
    )
    for n, faults in ((64, 8), (1024, 24)):
        for seed in (1, 2):
            for kind, a in (
                ("random", random_multicast(n, load=1.0, seed=seed)),
                ("random_half", random_multicast(n, load=0.5, seed=seed)),
                ("hotspot", hotspot_multicast(n, hot_outputs=n // 8, seed=seed)),
            ):
                name = f"n{n}_{kind}_s{seed}"
                cases[name] = (a, None)
                cases[name + "_faulted"] = (
                    a,
                    FaultPlan.random(n, faults=faults, seed=seed),
                )
    return cases


def _digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_digests(plan) -> dict:
    """One sha256 per derived field of a compiled plan."""
    return {
        "delivery_src": hashlib.sha256(
            np.ascontiguousarray(plan.delivery_src, dtype=np.int64).tobytes()
        ).hexdigest(),
        "lost_outputs": _digest(list(plan.lost_outputs)),
        "flaky_exposure": _digest(
            [[f.as_dict(), list(p0), list(p1)] for f, p0, p1 in plan.flaky_exposure]
        ),
        "fault_hits": _digest(
            [[f.as_dict(), list(outs)] for f, outs in plan.fault_hits]
        ),
        "bsn_stats": _digest(
            [
                [st.size, st.input_counts, st.splits, st.switch_ops]
                for st in plan.bsn_stats
            ]
        ),
    }


def current_digests() -> dict:
    return {
        name: plan_digests(compile_frame_plan(a, fault_plan=fp))
        for name, (a, fp) in _cases().items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_compiled_plan_matches_golden(name, golden):
    a, fp = _cases()[name]
    assert plan_digests(compile_frame_plan(a, fault_plan=fp)) == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


def test_faulted_cases_exercise_every_fault_field():
    plans = [
        compile_frame_plan(a, fault_plan=fp)
        for a, fp in _cases().values()
        if fp is not None
    ]
    assert any(p.lost_outputs for p in plans)
    assert any(p.flaky_exposure for p in plans)
    assert any(p.fault_hits for p in plans)


def test_cold_submit_builds_no_bsn_stats(monkeypatch):
    built = []
    init = bsn_mod.BsnFrameStats.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bsn_mod.BsnFrameStats, "__init__", counting_init)
    fabric = MulticastFabric(NetworkConfig(64, engine="fast"))
    for seed in range(3):
        result = fabric.submit(random_multicast(64, load=0.75, seed=seed))
        assert result.plan_cache_hit is False
        assert result.total_splits >= 0 and result.switch_ops > 0
    batch = BRSMN(NetworkConfig(64, engine="fast")).route_batch(
        random_multicast(64, load=1.0, seed=9), np.zeros((4, 64), dtype=np.int64)
    )
    assert batch.plan_cache_hit is False and batch.switch_ops > 0
    assert built == []
    stats = result.bsn_stats
    assert len(built) == len(stats) == 64 // 2 - 1
    assert result.bsn_stats is stats  # built once, then cached on the plan
    assert len(built) == len(stats)
    assert result.total_splits == sum(st.splits for st in stats)
    assert result.switch_ops == (
        sum(st.switch_ops for st in stats) + result.final_switches
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_compile_goldens.py --write")
    GOLDEN_PATH.write_text(
        json.dumps(current_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
