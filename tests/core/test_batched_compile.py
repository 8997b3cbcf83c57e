"""Batched compile: ``compile_frame_plans`` equals its singles.

``compile_frame_plans`` runs B assignments through each recursion
level's kernels at once (B networks side by side are just more blocks
of the same kernel call); ``compile_frame_plan`` is its B = 1 case.
Every :class:`~repro.core.fastplan.FramePlan` of a batch must equal,
field for field, the plan its assignment compiles to alone — for any
batch composition, with or without a fault plan.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_plan, make_random_assignment
from repro.core.fastplan import compile_frame_plan, compile_frame_plans
from repro.core.multicast import MulticastAssignment
from repro.errors import InvalidAssignmentError
from repro.faults import Fault, FaultPlan
from repro.obs.events import Observer
from repro.rbn.fast import shape_tables
from repro.workloads.random_assignments import random_multicast


@st.composite
def batches(draw, max_m: int = 8, max_batch: int = 6):
    """``(n, assignments)``: random, idle and full-broadcast assignments,
    with repeats of earlier entries (the same object, or an equal copy)."""
    n = 1 << draw(st.integers(min_value=1, max_value=max_m))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_batch))):
        kind = draw(st.sampled_from(["random", "idle", "broadcast", "repeat"]))
        if kind == "repeat" and out:
            earlier = out[draw(st.integers(0, len(out) - 1))]
            out.append(
                earlier
                if draw(st.booleans())
                else MulticastAssignment.from_dict(
                    n, {i: earlier[i] for i in earlier.active_inputs}
                )
            )
        elif kind == "idle":
            out.append(MulticastAssignment(n, [None] * n))
        elif kind == "broadcast":
            dests = [None] * n
            dests[draw(st.integers(0, n - 1))] = range(n)
            out.append(MulticastAssignment(n, dests))
        else:
            seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
            out.append(make_random_assignment(n, random.Random(seed)))
    return n, out


@st.composite
def fault_plans(draw, n: int):
    """``None``, or a plan of stuck, dead and/or flaky cells that always
    includes a delivery-plane (plane ``log2 n``) cell."""
    kinds = draw(
        st.sampled_from(
            [
                None,
                ("stuck_at",),
                ("dead_switch",),
                ("flaky_link",),
                ("stuck_at", "dead_switch", "flaky_link"),
            ]
        )
    )
    if kinds is None:
        return None
    m = n.bit_length() - 1
    cells = draw(
        st.sets(
            st.tuples(st.integers(1, m), st.integers(0, n // 2 - 1)),
            min_size=0,
            max_size=min(6, m * n // 2 - 1),
        )
    )
    cells.add((m, draw(st.integers(0, n // 2 - 1))))
    faults = []
    for level, index in sorted(cells):
        kind = draw(st.sampled_from(kinds))
        faults.append(
            Fault(
                kind=kind,
                level=level,
                index=index,
                stuck_setting=draw(st.sampled_from([0, 1, 1])),
                seed=draw(st.integers(0, 2**16)),
            )
        )
    return FaultPlan(n, tuple(faults))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_batch_equals_its_singles(data):
    n, assignments = data.draw(batches())
    plan = data.draw(fault_plans(n))
    batched = compile_frame_plans(assignments, fault_plan=plan)
    assert len(batched) == len(assignments)
    for assignment, got in zip(assignments, batched):
        assert_same_plan(got, compile_frame_plan(assignment, fault_plan=plan))


@pytest.mark.parametrize("n", [64, 1024])
def test_seeded_batches_equal_singles_under_faults(n):
    assignments = [random_multicast(n, load=1.0, seed=s) for s in range(8)]
    plan = FaultPlan.random(n, faults=16, seed=5)
    for got, a in zip(compile_frame_plans(assignments, fault_plan=plan), assignments):
        assert_same_plan(got, compile_frame_plan(a, fault_plan=plan))


def test_empty_batch():
    assert compile_frame_plans([]) == []


def test_mixed_sizes_rejected():
    with pytest.raises(InvalidAssignmentError, match="one network size"):
        compile_frame_plans(
            [random_multicast(8, seed=1), random_multicast(16, seed=1)]
        )


class _Recorder(Observer):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def test_one_level_event_per_level_for_the_whole_batch():
    n = 64
    assignments = [random_multicast(n, load=1.0, seed=s) for s in range(3)]
    batch_obs, single_obs = _Recorder(), _Recorder()
    compile_frame_plans(assignments, observer=batch_obs, frame_id=7)
    for a in assignments:
        compile_frame_plan(a, observer=single_obs)
    levels = [e.fields for e in batch_obs.events]
    assert [(e.stage, e.kind, e.frame_id) for e in batch_obs.events] == [
        ("fastplan", "level", 7)
    ] * 5
    singles = [e.fields for e in single_obs.events]
    for i, fields in enumerate(levels):
        per_plan = singles[i::5]
        assert fields["level"] == i + 1 and fields["size"] == n >> i
        for name in ("blocks", "splits", "switch_ops"):
            assert fields[name] == sum(f[name] for f in per_plan)


def test_batches_do_not_grow_the_shape_table_memo():
    n = 32
    shape_tables.cache_clear()  # a full memo would hide growth
    compile_frame_plan(random_multicast(n, seed=0))
    before = shape_tables.cache_info().currsize
    for batch in (2, 3, 5, 7):
        compile_frame_plans([random_multicast(n, seed=s) for s in range(batch)])
    assert shape_tables.cache_info().currsize == before
