"""Fault-aware batch routing: ``route_batch`` under a ``FaultPlan`` is
bit-identical to routing the same payload rows through sequential
faulted ``route`` calls."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assignments
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.faults import FaultPlan


@settings(max_examples=20, deadline=None)
@given(
    a=assignments(min_m=2, max_m=4),
    fault_seed=st.integers(0, 2**16),
    faults=st.integers(1, 3),
)
def test_faulted_route_batch_matches_sequential_routes(a, fault_seed, faults):
    plan = FaultPlan.random(a.n, faults=faults, seed=fault_seed)
    net = BRSMN(NetworkConfig(a.n, engine="fast", fault_plan=plan))
    rng = np.random.default_rng(fault_seed)
    mat = rng.integers(1, 2**31, size=(7, a.n))

    batch = net.route_batch(a, mat)
    for f in range(mat.shape[0]):
        single = net.route(a, payloads=list(mat[f]))
        expect = np.zeros(a.n, dtype=mat.dtype)
        for o, msg in enumerate(single.outputs):
            if msg is not None:
                expect[o] = msg.payload
        assert np.array_equal(batch.payloads[f], expect)
        # delivery_src agrees with the per-frame outputs (casualties
        # are idle in both views).
        for o in range(a.n):
            src = batch.delivery_src[o]
            if single.outputs[o] is None:
                assert src == -1
            else:
                assert src == single.outputs[o].source
