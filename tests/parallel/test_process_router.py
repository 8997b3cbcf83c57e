"""The process executor: bit-identity, envelopes, crash recovery.

Everything here pins the ``executor="process"`` contract from
``docs/executors.md``: a :class:`ProcessShardRouter` batch is
bit-identical to the sequential ``FramePlan.apply_batch`` for numeric
and object dtypes, with and without an active fault plan, and no
worker-process crash, envelope cache miss or pool respawn may change
the routed bytes — only the resilience/process counters.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assignments, make_random_assignment
from repro import BRSMN, FaultPlan, NetworkConfig
from repro.core.fastplan import compile_frame_plan
from repro.obs import MetricsObserver
from repro.obs.events import Observer
from repro.parallel import PlanEnvelope, ProcessShardRouter, ProcessWorkerPool

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not HAS_FORK,
    reason="crash-hook tests need the fork start method (hook must be "
    "inherited by worker processes, not re-imported away)",
)


class RecordingObserver(Observer):
    """Collects shard-recovery kinds and the other process events."""

    def __init__(self):
        self.resilience = []
        self.process = []

    def on_event(self, event):
        if event.stage != "parallel.process":
            return
        if event.kind in ("shard_requeued", "shard_inline"):
            self.resilience.append(event.kind)
        else:
            self.process.append(event)


@pytest.fixture(scope="module")
def pool():
    with ProcessWorkerPool(2) as shared_pool:
        yield shared_pool


def _numeric_matrix(n, batch, seed, dtype=np.int64):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.floating):
        return rng.standard_normal((batch, n)).astype(dtype)
    return rng.integers(0, 1 << 30, size=(batch, n), dtype=dtype)


def _object_matrix(n, batch, seed):
    rng = random.Random(seed)
    return np.array(
        [[f"p{rng.randrange(1 << 16)}" for _ in range(n)] for _ in range(batch)],
        dtype=object,
    )


# -- PlanEnvelope ------------------------------------------------------


def test_envelope_roundtrip_routes_identically():
    plan = compile_frame_plan(make_random_assignment(16, random.Random(1)))
    env = PlanEnvelope.from_plan(plan)
    mat = _numeric_matrix(16, 6, seed=1)
    assert np.array_equal(env.materialise().apply_batch(mat, 0), plan.apply_batch(mat))


def test_envelope_key_folds_in_casualties():
    plan = compile_frame_plan(
        make_random_assignment(16, random.Random(2)),
        fault_plan=FaultPlan.random(16, faults=3, seed=7, drop_rate=1.0),
    )
    clean = compile_frame_plan(make_random_assignment(16, random.Random(2)))
    assert PlanEnvelope.from_plan(clean).key != PlanEnvelope.from_plan(plan).key


def test_slim_envelope_cannot_materialise():
    plan = compile_frame_plan(make_random_assignment(8, random.Random(3)))
    thin = PlanEnvelope.from_plan(plan).thin()
    assert thin.slim
    with pytest.raises(ValueError):
        thin.materialise()


# -- bit-identity (satellite: property tests) --------------------------


@settings(max_examples=10, deadline=None)
@given(
    a=assignments(min_m=2, max_m=5),
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(3, 16),
)
def test_process_shm_matches_sequential_numeric(pool, a, seed, batch):
    plan = compile_frame_plan(a)
    router = ProcessShardRouter(pool)
    mat = _numeric_matrix(plan.n, batch, seed)
    assert np.array_equal(router.apply(plan, mat), plan.apply_batch(mat))


@settings(max_examples=10, deadline=None)
@given(
    a=assignments(min_m=2, max_m=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(3, 10),
)
def test_process_pickled_matches_sequential_object(pool, a, seed, batch):
    plan = compile_frame_plan(a)
    router = ProcessShardRouter(pool)
    mat = _object_matrix(plan.n, batch, seed)
    assert np.array_equal(router.apply(plan, mat), plan.apply_batch(mat))


@settings(max_examples=10, deadline=None)
@given(
    a=assignments(min_m=3, max_m=5),
    seed=st.integers(0, 2**32 - 1),
    attempt=st.integers(0, 3),
)
def test_process_matches_sequential_under_faults(pool, a, seed, attempt):
    """With an active FaultPlan the attempt's casualties are pre-sampled
    into the envelope — workers must deliver the exact bytes (and
    fills) the sequential faulted gather does, attempt by attempt."""
    fault_plan = FaultPlan.random(a.n, faults=2, seed=seed % 1000)
    plan = compile_frame_plan(a, fault_plan=fault_plan)
    router = ProcessShardRouter(pool)
    mat = _numeric_matrix(plan.n, 9, seed)
    assert np.array_equal(
        router.apply(plan, mat, attempt=attempt), plan.apply_batch(mat, attempt)
    )


def test_float_dtype_survives_shared_memory(pool):
    plan = compile_frame_plan(make_random_assignment(16, random.Random(4)))
    router = ProcessShardRouter(pool)
    mat = _numeric_matrix(16, 8, seed=4, dtype=np.float32)
    out = router.apply(plan, mat)
    assert out.dtype == np.float32
    assert np.array_equal(out, plan.apply_batch(mat))


def test_small_batch_routes_inline_without_pool(pool):
    plan = compile_frame_plan(make_random_assignment(8, random.Random(5)))
    router = ProcessShardRouter(pool)
    mat = _numeric_matrix(8, 1, seed=5)
    assert np.array_equal(router.apply(plan, mat), plan.apply_batch(mat))


# -- envelope shipping protocol ----------------------------------------


def test_warm_plan_ships_slim_envelopes(pool):
    plan = compile_frame_plan(make_random_assignment(16, random.Random(6)))
    rec = RecordingObserver()
    router = ProcessShardRouter(pool, observer=rec)
    mat = _numeric_matrix(16, 8, seed=6)
    expect = plan.apply_batch(mat)
    for _ in range(pool.workers + 3):
        assert np.array_equal(router.apply(plan, mat), expect)
    kinds = [e.fields["shipment"] for e in rec.process if e.kind == "envelope"]
    assert kinds.count("full") >= pool.workers
    assert "slim" in kinds


def test_slim_miss_is_reshipped_not_requeued(pool):
    """Lie to the router that every worker is warm: the cold workers
    answer the slim envelope with a miss, the router re-ships the full
    arrays, and the batch is still bit-identical — with zero requeues
    (a miss is protocol, not a failure)."""
    plan = compile_frame_plan(make_random_assignment(16, random.Random(7)))
    rec = RecordingObserver()
    router = ProcessShardRouter(pool, observer=rec)
    env = PlanEnvelope.from_plan(plan)
    router._envelope_sends[env.key] = pool.workers
    mat = _numeric_matrix(16, 8, seed=7)
    assert np.array_equal(router.apply(plan, mat), plan.apply_batch(mat))
    kinds = [e.fields["shipment"] for e in rec.process if e.kind == "envelope"]
    assert "miss" in kinds
    assert "full" in kinds  # the re-shipment after the miss
    assert router.requeues == 0
    assert rec.resilience == []


# -- crash recovery ----------------------------------------------------


def _crash_once_hook(marker_path, hard):
    """Build a crash hook that fires exactly once across all workers
    (an O_EXCL marker file is the cross-process 'already crashed' bit —
    it survives pool respawns, unlike worker memory)."""

    def hook(lo, hi):
        try:
            fd = os.open(str(marker_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        if hard:
            os._exit(1)
        raise ValueError("poisoned shard (soft crash)")

    return hook


@fork_only
def test_worker_process_death_requeues_and_respawns(tmp_path):
    """A worker dying mid-shard breaks the whole executor
    (BrokenProcessPool): the router must respawn the pool, resubmit the
    shard exactly once, and deliver bit-identical bytes."""
    from repro.parallel import process as proc_mod

    plan = compile_frame_plan(make_random_assignment(32, random.Random(8)))
    mat = _numeric_matrix(32, 12, seed=8)
    rec = RecordingObserver()
    pool = ProcessWorkerPool(2, observer=rec)
    proc_mod._CRASH_HOOK = _crash_once_hook(tmp_path / "crashed", hard=True)
    try:
        router = ProcessShardRouter(pool, observer=rec)
        out = router.apply(plan, mat)
    finally:
        proc_mod._CRASH_HOOK = None
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 1
    assert router.inline_fallbacks == 0
    assert pool.respawns == 1
    assert rec.resilience.count("shard_requeued") == 1
    assert "respawn" in [e.kind for e in rec.process]


@fork_only
def test_soft_worker_failure_requeues_without_respawn(tmp_path):
    """An exception *inside* the worker function (process survives)
    must take the requeue path without poisoning the pool."""
    from repro.parallel import process as proc_mod

    plan = compile_frame_plan(make_random_assignment(32, random.Random(9)))
    mat = _numeric_matrix(32, 12, seed=9)
    rec = RecordingObserver()
    pool = ProcessWorkerPool(2, observer=rec)
    proc_mod._CRASH_HOOK = _crash_once_hook(tmp_path / "crashed", hard=False)
    try:
        router = ProcessShardRouter(pool, observer=rec)
        out = router.apply(plan, mat)
    finally:
        proc_mod._CRASH_HOOK = None
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 1
    assert pool.respawns == 0
    assert rec.resilience.count("shard_requeued") == 1


@fork_only
def test_double_crash_falls_back_inline(tmp_path):
    """A shard that crashes its requeue too is routed inline on the
    submitting thread — the batch still completes bit-identically."""
    from repro.parallel import process as proc_mod

    plan = compile_frame_plan(make_random_assignment(32, random.Random(10)))
    mat = _numeric_matrix(32, 12, seed=10)
    rec = RecordingObserver()
    pool = ProcessWorkerPool(2, observer=rec)

    def always_crash(lo, hi):
        os._exit(1)

    proc_mod._CRASH_HOOK = always_crash
    try:
        router = ProcessShardRouter(pool, observer=rec)
        out = router.apply(plan, mat)
    finally:
        proc_mod._CRASH_HOOK = None
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 1
    assert router.inline_fallbacks == 1
    assert rec.resilience.count("shard_requeued") == 1
    assert rec.resilience.count("shard_inline") == 1


@fork_only
def test_object_dtype_crash_recovery_is_bit_identical(tmp_path):
    from repro.parallel import process as proc_mod

    plan = compile_frame_plan(make_random_assignment(16, random.Random(11)))
    mat = _object_matrix(16, 10, seed=11)
    pool = ProcessWorkerPool(2)
    proc_mod._CRASH_HOOK = _crash_once_hook(tmp_path / "crashed", hard=True)
    try:
        router = ProcessShardRouter(pool)
        out = router.apply(plan, mat)
    finally:
        proc_mod._CRASH_HOOK = None
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 1


# -- pool lifecycle / control plane ------------------------------------


def test_worker_target_caps_fan_out(pool):
    router = ProcessShardRouter(pool)
    assert router.effective_workers == pool.workers
    router.set_worker_target(1)
    assert router.effective_workers == 1
    plan = compile_frame_plan(make_random_assignment(16, random.Random(12)))
    mat = _numeric_matrix(16, 8, seed=12)
    # One effective worker -> single shard, routed inline, still exact.
    assert np.array_equal(router.apply(plan, mat), plan.apply_batch(mat))
    router.set_worker_target(None)
    assert router.effective_workers == pool.workers
    with pytest.raises(ValueError):
        router.set_worker_target(0)


def test_close_tears_down_without_leaking_processes():
    cfg = NetworkConfig(16, engine="fast", workers=2, executor="process")
    net = BRSMN(cfg)
    a = make_random_assignment(16, random.Random(13))
    mat = _numeric_matrix(16, 8, seed=13)
    result = net.route_batch(a, mat)
    assert np.array_equal(
        result.payloads, BRSMN(NetworkConfig(16, engine="fast")).route_batch(a, mat).payloads
    )
    procs = list(net._proc_pool._executor._processes.values())
    assert procs, "the batch should have started the process pool"
    net.close()
    assert net._proc_pool._executor is None
    for proc in procs:
        assert not proc.is_alive()
    net.close()  # idempotent


def test_end_to_end_process_network_matches_sequential_with_faults():
    fault_plan = FaultPlan.random(16, faults=2, seed=21)
    a = make_random_assignment(16, random.Random(14))
    numeric = _numeric_matrix(16, 12, seed=14)
    objects = _object_matrix(16, 12, seed=14)
    seq = BRSMN(NetworkConfig(16, engine="fast", fault_plan=fault_plan))
    proc = BRSMN(
        NetworkConfig(
            16, engine="fast", workers=2, executor="process", fault_plan=fault_plan
        )
    )
    try:
        for mat in (numeric, objects):
            assert np.array_equal(
                proc.route_batch(a, mat).payloads,
                seq.route_batch(a, mat).payloads,
            )
    finally:
        proc.close()
        seq.close()


def test_process_metrics_families_populate():
    metrics = MetricsObserver()
    cfg = NetworkConfig(
        16, engine="fast", workers=2, executor="process", observer=metrics
    )
    net = BRSMN(cfg)
    a = make_random_assignment(16, random.Random(15))
    mat = _numeric_matrix(16, 8, seed=15)
    try:
        net.route_batch(a, mat)
        net.route_batch(a, _object_matrix(16, 8, seed=15))
    finally:
        net.close()
    text = metrics.registry.to_prometheus_text()
    assert 'repro_parallel_proc_tasks_total{kind="shard_shm"}' in text
    assert 'repro_parallel_proc_tasks_total{kind="shard_pickled"}' in text
    assert 'repro_parallel_proc_envelopes_total{kind="full"}' in text
    assert "repro_parallel_proc_workers 2" in text
    assert "repro_parallel_proc_shm_bytes_total" in text
