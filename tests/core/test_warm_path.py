"""The array-native warm path: lazy results, compile-time proof, memos.

A fast-engine :class:`~repro.core.brsmn.RoutingResult` carries the
compiled plan's ``delivery_src`` and the caller's input payloads; its
per-output ``payloads`` and its ``Message`` list are built only when
read.  These tests pin that

* the lazily built lists equal the eager construction they replaced,
  fault casualties included;
* a warm fabric submit gathers no payloads and builds no ``Message``
  unless one is read;
* ``verify_result`` accepts a result of a plan proven at compile time
  without comparing arrays, and every other result still takes the
  one-array check or the per-output walk of ``verify_delivery``,
  reporting exactly what the walk reports;
* the plan cache keeps source vectors, not assignments;
* the memoised source vector, fanout and fingerprint, and the shared
  empty destination set, never change what they memoise, nor how an
  assignment compares, hashes or pickles.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core import brsmn as brsmn_mod
from repro.core.brsmn import BRSMN
from repro.core import verification as verification_mod
from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.core.fastplan import FramePlan, PlanCache, compile_frame_plan
from repro.core.message import Message
from repro.core.multicast import MulticastAssignment, paper_example_assignment
from repro.core.serialization import assignment_fingerprint
from repro.core.verification import verify_delivery, verify_result
from repro.errors import InvalidAssignmentError
from repro.faults import FaultPlan
from repro.workloads.hotspot import hotspot_multicast
from repro.workloads.random_assignments import random_multicast

SIZES = [2, 4, 8, 16, 32, 64, 128, 256]


def _assignments(n, seed):
    """One random and one hotspot assignment of size ``n``."""
    return [
        random_multicast(n, load=0.8, seed=seed),
        hotspot_multicast(n, hot_outputs=min(4, n), hot_fraction=0.5, seed=seed),
    ]


def _eager_outputs(plan, payloads, attempt=0):
    """The per-frame ``Message`` construction the lazy list replaced."""
    delivered = plan.apply(payloads, attempt)
    casualties = plan.casualties(attempt) if plan.has_faults else frozenset()
    return [
        None
        if src < 0 or o in casualties
        else Message(source=src, destinations=frozenset({o}), payload=delivered[o])
        for o, src in enumerate(plan.delivery_src.tolist())
    ]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
def test_lazy_outputs_equal_eager_construction(n, faulted):
    fault_plan = (
        FaultPlan.random(n, faults=min(3, n // 2), seed=n) if faulted else None
    )
    net = BRSMN(NetworkConfig(n, engine="fast", fault_plan=fault_plan))
    payloads = [f"p{i}" for i in range(n)]
    for seed in range(3):
        for a in _assignments(n, seed):
            for attempt in (0, 1):
                if net._injector is not None:
                    net._injector.attempt = attempt
                result = net.route(a, payloads=payloads)
                eager = _eager_outputs(result.plan, payloads, attempt)
                picked = list(range(0, n, 3))
                assert result.messages_at(picked) == [eager[o] for o in picked]
                assert not result.outputs_materialised
                assert result.outputs == eager
                assert result.outputs_materialised
                assert result.outputs is result.outputs  # built once
                assert result.payloads == result.plan.apply(payloads, attempt)
                assert result.payloads is result.payloads  # gathered once
                if fault_plan is None:
                    assert np.array_equal(result.delivery_src, a.source_vector())


def test_fast_result_shares_the_plan():
    net = BRSMN(NetworkConfig(16, engine="fast"))
    a = random_multicast(16, load=1.0, seed=3)
    first, second = net.route(a), net.route(a)
    assert first.plan is second.plan
    assert first.bsn_stats is first.plan.bsn_stats
    assert first.total_splits == sum(st.splits for st in first.bsn_stats)
    assert first.switch_ops == (
        sum(st.switch_ops for st in first.bsn_stats) + first.final_switches
    )
    with pytest.raises(ValueError):
        first.delivery_src[0] = 0  # read-only: it is the plan's array


class _CountingMessage(Message):
    built = 0

    def __post_init__(self):
        type(self).built += 1
        super().__post_init__()


def test_warm_submit_builds_no_messages_until_read(monkeypatch):
    applied = []
    apply = FramePlan.apply
    monkeypatch.setattr(
        FramePlan,
        "apply",
        lambda plan, *args: applied.append(plan) or apply(plan, *args),
    )
    monkeypatch.setattr(brsmn_mod, "Message", _CountingMessage)
    fabric = MulticastFabric(NetworkConfig(64, engine="fast"))
    a = random_multicast(64, load=0.75, seed=5)
    fabric.submit(a)  # cold: compiles the plan
    _CountingMessage.built = 0
    result = fabric.submit(a)
    assert result.plan_cache_hit
    assert _CountingMessage.built == 0
    assert fabric.stats.deliveries == 2 * a.total_fanout
    # No payload list either, until one is read.
    assert applied == [] and result.__dict__["_payloads"] is None
    assert result.input_payloads is fabric.network._default_payloads
    payloads = result.payloads
    assert payloads == [
        None if s < 0 else f"pkt{s}" for s in a.source_vector().tolist()
    ]
    assert result.payloads is payloads
    assert applied == [] and _CountingMessage.built == 0
    assert len(result.delivered) == a.total_fanout
    assert _CountingMessage.built == a.total_fanout
    result.outputs  # cached: no second build
    assert _CountingMessage.built == a.total_fanout


def test_observed_route_builds_no_messages(monkeypatch):
    from repro.obs import MetricsObserver

    monkeypatch.setattr(brsmn_mod, "Message", _CountingMessage)
    _CountingMessage.built = 0
    observer = MetricsObserver()
    net = BRSMN(NetworkConfig(32, engine="fast", observer=observer))
    a = random_multicast(32, load=0.5, seed=2)
    net.route(a)
    net.route(a)
    assert _CountingMessage.built == 0
    assert observer.registry.get("repro_deliveries_total").value() == (
        2 * a.total_fanout
    )


def _corrupt(result, src):
    src.flags.writeable = False
    result.delivery_src = src
    return result


def _fresh(n=32, seed=11):
    a = random_multicast(n, load=0.75, seed=seed)
    return a, BRSMN(NetworkConfig(n, engine="fast")).route(a)


def _assert_same_violations(result):
    report = verify_result(result)
    walked = verify_delivery(result.assignment, result.outputs)
    assert not report.ok
    assert report.violations == walked.violations
    assert report.deliveries == walked.deliveries


def test_verify_swapped_deliveries_matches_walk():
    a, result = _fresh()
    assert result.plan.proven is a.source_vector()  # the O(1) path's case
    src = result.delivery_src.copy()
    used = np.nonzero(src >= 0)[0]
    o1 = used[0]
    o2 = next(o for o in used if src[o] != src[o1])
    src[[o1, o2]] = src[[o2, o1]]
    _assert_same_violations(_corrupt(result, src))


def test_verify_spurious_idle_delivery_matches_walk():
    a, result = _fresh()
    src = result.delivery_src.copy()
    idle = int(np.nonzero(src < 0)[0][0])
    src[idle] = int(src[src >= 0][0])
    result = _corrupt(result, src)
    _assert_same_violations(result)
    assert any("spurious" in v for v in verify_result(result).violations)


def test_verify_mutated_outputs_matches_walk():
    a, result = _fresh()
    used = int(np.nonzero(result.delivery_src >= 0)[0][0])
    result.outputs[used] = None  # delivery_src still looks perfect
    _assert_same_violations(result)
    assert any("missing" in v for v in verify_result(result).violations)


def test_verify_clean_result_counts_deliveries():
    a, result = _fresh()
    report = verify_result(result)
    assert report.ok and report.deliveries == a.total_fanout
    assert not result.outputs_materialised
    assert verify_delivery(a, result.outputs).deliveries == report.deliveries


# ---------------------------------------------------------------------------
# the compile-time proof
# ---------------------------------------------------------------------------


@pytest.fixture
def array_compares(monkeypatch):
    """Count the ``np.array_equal`` calls ``verify_result`` makes."""
    calls = []
    real = np.array_equal

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(verification_mod.np, "array_equal", counting)
    return calls


def _verify_counted(result, calls):
    calls.clear()
    report = verify_result(result)
    return report, len(calls)


def test_compiled_plan_carries_its_proof():
    a = random_multicast(32, load=0.75, seed=3)
    plan = compile_frame_plan(a)
    assert plan.proven is a.source_vector()
    faulted = compile_frame_plan(a, fault_plan=FaultPlan.random(32, faults=3, seed=2))
    assert faulted.proven is None
    assert compile_frame_plan(a, fault_plan=FaultPlan(32)).proven is a.source_vector()


def test_hit_by_the_compiling_assignment_is_accepted_without_compare(
    array_compares,
):
    a, result = _fresh()
    report, compares = _verify_counted(result, array_compares)
    assert report.ok and report.deliveries == a.total_fanout
    assert compares == 0
    assert not result.outputs_materialised
    fabric = MulticastFabric(NetworkConfig(32, engine="fast"))
    fabric.submit(a)
    array_compares.clear()
    assert fabric.submit(a).plan_cache_hit
    assert array_compares == []
    assert fabric.stats.deliveries == 2 * a.total_fanout


def test_equal_but_distinct_assignment_is_compared(array_compares):
    a, _ = _fresh()
    net = BRSMN(NetworkConfig(32, engine="fast"))
    net.route(a)
    twin = MulticastAssignment(a.n, a.destinations)
    result = net.route(twin)
    assert result.plan_cache_hit and result.plan.proven is a.source_vector()
    report, compares = _verify_counted(result, array_compares)
    assert report.ok and report.deliveries == a.total_fanout
    assert compares == 1


def test_faulted_plan_is_compared_or_walked(array_compares):
    n = 32
    net = BRSMN(
        NetworkConfig(n, engine="fast", fault_plan=FaultPlan.random(n, faults=4, seed=7))
    )
    for seed in range(6):
        a = random_multicast(n, load=0.9, seed=seed)
        result = net.route(a)
        assert result.plan.proven is None
        report, compares = _verify_counted(result, array_compares)
        assert compares == 1
        walked = verify_delivery(a, result.outputs)
        assert (report.ok, report.violations, report.deliveries) == (
            walked.ok, walked.violations, walked.deliveries
        )


def test_hand_built_plan_without_proof_is_compared(array_compares):
    a = random_multicast(16, load=0.75, seed=4)
    compiled = compile_frame_plan(a)
    plan = FramePlan(n=16, delivery_src=compiled.delivery_src.copy())
    assert plan.proven is None
    result = brsmn_mod.RoutingResult(
        assignment=a,
        outputs=None,
        mode="oracle",
        engine="fast",
        delivery_src=plan.delivery_src,
        plan=plan,
        input_payloads=tuple(range(16)),
    )
    report, compares = _verify_counted(result, array_compares)
    assert report.ok and compares == 1


# ---------------------------------------------------------------------------
# the plan cache keeps source vectors
# ---------------------------------------------------------------------------


def test_plan_cache_keeps_source_vectors_not_assignments():
    cache = PlanCache(maxsize=3)
    pool = [random_multicast(64, load=0.6, seed=s) for s in range(5)]
    copies = [MulticastAssignment(a.n, a.destinations) for a in pool]
    for a in pool:
        cache.get(a)
    cache.get(pool[2])  # hit: moves to the back
    refs = [weakref.ref(a) for a in pool]
    del pool, a
    gc.collect()
    assert [r() for r in refs] == [None] * 5
    assert cache.snapshot_assignments() == [copies[3], copies[4], copies[2]]


# ---------------------------------------------------------------------------
# memoised assignment values
# ---------------------------------------------------------------------------

#: ``paper-8`` of the golden digests in test_plan_cache_interleavings.py.
PAPER_8_FINGERPRINT = (
    "040f6859d4d3003f26b36e8b0c62254b78fa98c7e9ac81a3bf8fe8502e9cd33d"
)


def test_memoised_fingerprint_is_the_golden_digest():
    a = paper_example_assignment()
    assert assignment_fingerprint(a) == PAPER_8_FINGERPRINT
    assert assignment_fingerprint(a) == PAPER_8_FINGERPRINT  # memo hit
    fresh = MulticastAssignment(a.n, a.destinations)
    assert assignment_fingerprint(fresh) == PAPER_8_FINGERPRINT
    for n in (4, 64, 256):
        b = random_multicast(n, load=0.6, seed=n)
        memo = assignment_fingerprint(b)
        assert memo == assignment_fingerprint(
            MulticastAssignment(n, b.destinations)
        )


def test_source_vector_is_read_only_inverse_map():
    a = paper_example_assignment()
    vec = a.source_vector()
    assert vec is a.source_vector()
    assert vec.dtype == np.int64
    assert vec.tolist() == [a.inverse_map().get(o, -1) for o in range(a.n)]
    with pytest.raises(ValueError):
        vec[0] = 5
    assert MulticastAssignment.empty(4).source_vector().tolist() == [-1] * 4


def test_memo_does_not_change_equality_hash_or_pickle():
    a = paper_example_assignment()
    untouched = paper_example_assignment()
    a.source_vector()
    a.fanout_counts()
    assert a.total_fanout == 8 and "_total_fanout" in a.__dict__
    assignment_fingerprint(a)
    assert a == untouched and hash(a) == hash(untouched)
    assert pickle.dumps(a) == pickle.dumps(untouched)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    assert assignment_fingerprint(back) == PAPER_8_FINGERPRINT
    with pytest.raises(ValueError):
        back.source_vector()[0] = 1


def test_fanout_counts_match_destination_sets():
    a = paper_example_assignment()
    assert dict(a.fanout_counts()) == {2: 2, 3: 1, 1: 1}
    assert a.total_fanout == 8
    with pytest.raises(TypeError):
        a.fanout_counts()[2] = 0


def test_idle_inputs_share_one_empty_set():
    a = MulticastAssignment.from_dict(16, {3: [0, 5], 9: [2]})
    idle = [ds for ds in a.destinations if not ds]
    assert len(idle) == 14
    assert all(ds is idle[0] for ds in idle)
    for built in (
        MulticastAssignment(16, [[]] * 16),
        MulticastAssignment(16, [None] * 16),
        MulticastAssignment.from_permutation([None] * 16),
        random_multicast(16, load=0.3, seed=1),
    ):
        assert all(ds is idle[0] for ds in built.destinations if not ds)


def test_shared_empty_set_keeps_equality_hash_and_pickle():
    a = MulticastAssignment.from_dict(16, {3: [0, 5], 9: [2]})
    # The same assignment with one fresh empty set per idle input.
    fresh = object.__new__(MulticastAssignment)
    object.__setattr__(fresh, "n", 16)
    object.__setattr__(
        fresh, "destinations", tuple(frozenset(list(ds)) for ds in a.destinations)
    )
    assert fresh.destinations[0] is not fresh.destinations[1]
    assert a == fresh and hash(a) == hash(fresh)
    for obj in (a, fresh):
        back = pickle.loads(pickle.dumps(obj))
        assert back == a and hash(back) == hash(a)
        assert assignment_fingerprint(back) == assignment_fingerprint(a)
    assert a.total_fanout == 3
    assert pickle.dumps(a) == pickle.dumps(MulticastAssignment(16, a.destinations))


def test_source_vector_round_trip():
    for n in (2, 8, 64):
        for seed in range(3):
            a = random_multicast(n, load=0.7, seed=seed)
            assert MulticastAssignment.from_source_vector(a.source_vector()) == a
    with pytest.raises(InvalidAssignmentError):
        MulticastAssignment.from_source_vector([0, 4, -1, -1])
