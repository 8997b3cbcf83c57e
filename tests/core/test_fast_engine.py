"""Fast engine vs reference engine: identical deliveries, cached plans.

The acceptance bar for ``engine="fast"`` is *byte-identical deliveries*
— every output receives a message from the same source carrying the
same payload as under the reference engine — on BSNs, full BRSMNs,
batched frames, and through the one-call API and the fabric.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import assignments, bsn_tag_vectors, make_random_assignment
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.core.bsn import BinarySplittingNetwork
from repro.core.fabric import MulticastFabric
from repro.core.fastplan import FramePlan, PlanCache, compile_frame_plan
from repro.core.multicast import MulticastAssignment, paper_example_assignment
from repro.core.routing import build_network, route_multicast
from repro.core.serialization import assignment_fingerprint
from repro.core.tags import Tag
from repro.errors import InvalidAssignmentError
from repro.rbn.cells import Cell
from repro.workloads.hotspot import hotspot_session


def _delivery_map(result):
    return {o: (m.source, m.payload) for o, m in result.delivered.items()}


# ---------------------------------------------------------------------------
# BSN level
# ---------------------------------------------------------------------------

@given(bsn_tag_vectors(min_m=2, max_m=6))
@settings(max_examples=80, deadline=None)
def test_bsn_fast_engine_identical_cells(tags):
    n = len(tags)
    cells = [
        Cell(t, data=f"a{i}", branch0=(i, 0), branch1=(i, 1))
        if t is Tag.ALPHA
        else (Cell(t) if t is Tag.EPS else Cell(t, data=i))
        for i, t in enumerate(tags)
    ]
    ref_out, ref_stats = BinarySplittingNetwork(n).route_cells(cells)
    fast_out, fast_stats = BinarySplittingNetwork(n, engine="fast").route_cells(cells)
    assert [(c.tag, c.data) for c in fast_out] == [(c.tag, c.data) for c in ref_out]
    assert fast_stats == ref_stats


def test_bsn_rejects_unknown_engine():
    with pytest.raises(ValueError):
        BinarySplittingNetwork(8, engine="turbo")


# ---------------------------------------------------------------------------
# full BRSMN
# ---------------------------------------------------------------------------

@given(assignments(min_m=1, max_m=6))
@settings(max_examples=100, deadline=None)
def test_brsmn_fast_engine_identical_deliveries(assignment):
    ref = BRSMN(assignment.n).route(assignment)
    fast = BRSMN(NetworkConfig(assignment.n, engine="fast")).route(assignment)
    assert _delivery_map(fast) == _delivery_map(ref)
    assert fast.total_splits == ref.total_splits
    assert fast.switch_ops == ref.switch_ops
    assert fast.final_switches == ref.final_switches
    assert fast.engine == "fast" and ref.engine == "reference"


def test_paper_example_both_engines():
    """Fig. 2's worked 8x8 example routes identically on both engines."""
    a = paper_example_assignment()
    payloads = [f"video{i}" for i in range(8)]
    ref = route_multicast(8, a, payloads=payloads)
    fast = route_multicast(NetworkConfig(8, engine="fast"), a, payloads=payloads)
    assert _delivery_map(fast) == _delivery_map(ref)
    assert _delivery_map(fast) == {
        0: (0, "video0"), 1: (0, "video0"),
        2: (3, "video3"),
        3: (2, "video2"), 4: (2, "video2"), 7: (2, "video2"),
        5: (7, "video7"), 6: (7, "video7"),
    }


def test_n2_edge_case():
    a = MulticastAssignment(2, [{0, 1}, None])
    fast = BRSMN(NetworkConfig(2, engine="fast")).route(a)
    ref = BRSMN(2).route(a)
    assert _delivery_map(fast) == _delivery_map(ref) == {0: (0, "pkt0"), 1: (0, "pkt0")}


def test_fast_engine_rejects_trace():
    a = paper_example_assignment()
    with pytest.raises(ValueError):
        BRSMN(NetworkConfig(8, engine="fast")).route(a, collect_trace=True)


def test_feedback_rejects_fast_engine():
    with pytest.raises(ValueError):
        build_network(NetworkConfig(8, implementation="feedback", engine="fast"))


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        BRSMN(NetworkConfig(8, engine="warp"))


# ---------------------------------------------------------------------------
# batched frames
# ---------------------------------------------------------------------------

def test_batch_matches_sequential(rng):
    for n in (4, 16, 64):
        a = make_random_assignment(n, rng)
        net = BRSMN(NetworkConfig(n, engine="fast"))
        mat = np.array(
            [[f"f{f}.i{i}" for i in range(n)] for f in range(7)], dtype=object
        )
        batch = net.route_batch(a, mat)
        assert batch.frames == 7
        for f in range(7):
            single = net.route(a, payloads=list(mat[f]))
            expect = [None] * n
            for o, m in single.delivered.items():
                expect[o] = m.payload
            assert batch.frame_outputs(f) == expect
        # reference-engine batch agrees too
        ref_batch = BRSMN(n).route_batch(a, mat)
        assert (batch.payloads == ref_batch.payloads).all()
        np.testing.assert_array_equal(batch.delivery_src, ref_batch.delivery_src)
        assert batch.total_splits == ref_batch.total_splits
        assert batch.switch_ops == ref_batch.switch_ops


def test_batch_shape_validation():
    net = BRSMN(NetworkConfig(8, engine="fast"))
    a = paper_example_assignment()
    with pytest.raises(InvalidAssignmentError):
        net.route_batch(a, np.empty((3, 4), dtype=object))


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

def test_plan_cache_hits_and_eviction():
    cache = PlanCache(maxsize=2)
    a1 = MulticastAssignment.from_dict(8, {0: [1, 2]})
    a2 = MulticastAssignment.from_dict(8, {3: [4]})
    a3 = MulticastAssignment.from_dict(8, {5: [6, 7]})
    p1, hit = cache.get(a1)
    assert not hit and isinstance(p1, FramePlan)
    _, hit = cache.get(a1)
    assert hit
    cache.get(a2)
    cache.get(a3)  # evicts a1 (LRU, maxsize 2)
    _, hit = cache.get(a1)
    assert not hit
    assert cache.hits == 1 and cache.misses == 4
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


def test_fingerprint_is_structural():
    """Same destination sets => same fingerprint, however constructed."""
    a = MulticastAssignment(4, [{1, 2}, None, {3}, None])
    b = MulticastAssignment.from_dict(4, {2: [3], 0: [2, 1]})
    c = MulticastAssignment.from_dict(4, {0: [1]})
    assert assignment_fingerprint(a) == assignment_fingerprint(b)
    assert assignment_fingerprint(a) != assignment_fingerprint(c)


def test_route_reports_cache_hit():
    net = BRSMN(NetworkConfig(8, engine="fast"))
    a = paper_example_assignment()
    first = net.route(a)
    second = net.route(a)
    assert first.plan_cache_hit is False
    assert second.plan_cache_hit is True
    assert BRSMN(8).route(a).plan_cache_hit is None  # reference engine


def test_hotspot_session_cache_hit_rate():
    """The recurring-assignment workload drives a nonzero hit rate."""
    frames = hotspot_session(16, frames=50, distinct=5, seed=11)
    fab = MulticastFabric(NetworkConfig(16, engine="fast"), mode="oracle")
    stats = fab.run(frames)
    assert stats.frames == 50
    assert stats.plan_cache_misses <= 5
    assert stats.plan_cache_hits >= 45
    assert stats.plan_cache_hit_rate > 0.8
    # reference fabric reports no cache activity
    ref = MulticastFabric(16, mode="oracle").run(frames[:3])
    assert ref.plan_cache_hits == 0 and ref.plan_cache_misses == 0
    assert ref.plan_cache_hit_rate == 0.0


def test_shared_plan_cache():
    cache = PlanCache()
    a = paper_example_assignment()
    BRSMN(NetworkConfig(8, engine="fast"), plan_cache=cache).route(a)
    result = BRSMN(NetworkConfig(8, engine="fast"), plan_cache=cache).route(a)
    assert result.plan_cache_hit is True
    assert cache.hits == 1 and cache.misses == 1


# ---------------------------------------------------------------------------
# plan internals
# ---------------------------------------------------------------------------

def test_compiled_plan_matches_inverse_map(rng):
    for _ in range(20):
        a = make_random_assignment(32, rng)
        plan = compile_frame_plan(a)
        inverse = a.inverse_map()
        for o in range(32):
            assert plan.delivery_src[o] == inverse.get(o, -1)


def test_plan_payload_length_validated():
    plan = compile_frame_plan(paper_example_assignment())
    with pytest.raises(InvalidAssignmentError):
        plan.apply(["x"] * 4)
    net = BRSMN(NetworkConfig(8, engine="fast"))
    with pytest.raises(InvalidAssignmentError, match="expected 8 payloads"):
        net.route(paper_example_assignment(), payloads=["x"] * 4)
