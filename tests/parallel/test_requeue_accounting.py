"""Requeue accounting: ``shard_requeued`` means *actually* resubmitted.

Regression tests for an accounting slip in
:class:`~repro.parallel.shard.ShardedBatchRouter`: a crashed shard
bumped ``requeues`` and emitted ``shard_requeued`` *before* attempting
the resubmission — so when the executor had been shut down under the
router (resubmission impossible, shard routed inline), the books
claimed a requeue that never happened, contradicting the documented
semantics ("crashed shard tasks resubmitted to the pool").  These tests
pin the fixed contract:

* a crash whose resubmission fails counts only as an inline fallback;
* a crash whose resubmission lands counts as exactly one requeue;
* the last shard — routed inline on the submitting thread *by design* —
  never emits any resilience event at all.
"""

from __future__ import annotations

import random
import threading

import numpy as np

from conftest import make_random_assignment
from repro.core.fastplan import compile_frame_plan
from repro.obs import CompositeObserver, MetricsObserver
from repro.obs.events import Observer
from repro.parallel import ShardedBatchRouter, WorkerPool


class RecordingObserver(Observer):
    def __init__(self):
        self.actions = []

    def on_event(self, event):
        if event.stage == "parallel.shard":
            self.actions.append(event.kind)


class CrashOnWorkerPlan:
    """Crashes every time it runs on a pool thread; fine inline."""

    def __init__(self, plan):
        self.plan = plan
        self.delivery_src = plan.delivery_src

    def apply_batch(self, mat, attempt=0):
        if threading.current_thread().name.startswith("repro-worker"):
            raise RuntimeError("worker crashed")
        return self.plan.apply_batch(mat, attempt)


class CrashOncePerShardPlan:
    """Each shard's first pool-thread attempt crashes; retries succeed."""

    def __init__(self, plan):
        self.plan = plan
        self.delivery_src = plan.delivery_src
        self._seen = set()
        self._lock = threading.Lock()

    def apply_batch(self, mat, attempt=0):
        if threading.current_thread().name.startswith("repro-worker"):
            key = int(mat[0, 0])  # first cell identifies the shard's rows
            with self._lock:
                first = key not in self._seen
                self._seen.add(key)
            if first:
                raise RuntimeError("worker crashed (once)")
        return self.plan.apply_batch(mat, attempt)


def _routed(router, plan_like, n, batch=12):
    mat = np.arange(batch * n, dtype=np.int64).reshape(batch, n)
    return mat, router.apply(plan_like, mat)


def test_failed_resubmission_is_inline_not_requeue():
    """Crash + dead executor on resubmit: zero requeues, only inlines."""
    a = make_random_assignment(32, random.Random(3))
    plan = compile_frame_plan(a)
    pool = WorkerPool(4)
    metrics = MetricsObserver()
    rec = RecordingObserver()
    router = ShardedBatchRouter(pool, observer=CompositeObserver(metrics, rec))
    # Let the 3 initial shard submissions through, then kill the
    # executor's door: every resubmission raises like a shut-down pool.
    real_submit = pool.submit
    calls = {"n": 0}

    def submit(kind, fn, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("cannot schedule new futures after shutdown")
        return real_submit(kind, fn, *args, **kwargs)

    pool.submit = submit
    try:
        mat, out = _routed(router, CrashOnWorkerPlan(plan), 32)
    finally:
        pool.submit = real_submit
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 0
    assert router.inline_fallbacks == 3
    assert rec.actions.count("shard_requeued") == 0
    assert rec.actions.count("shard_inline") == 3
    text = metrics.registry.to_prometheus_text()
    assert "repro_resilience_shard_requeues_total" not in text.replace(
        "# HELP repro_resilience_shard_requeues_total", ""
    ).replace("# TYPE repro_resilience_shard_requeues_total", "")
    assert "repro_resilience_shard_inline_total 3" in text


def test_successful_resubmission_still_counts_one_requeue():
    """The fix must not under-count: a landed requeue is still a requeue."""
    a = make_random_assignment(32, random.Random(5))
    plan = compile_frame_plan(a)
    pool = WorkerPool(4)
    rec = RecordingObserver()
    router = ShardedBatchRouter(pool, observer=rec)
    try:
        mat, out = _routed(router, CrashOncePerShardPlan(plan), 32)
    finally:
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 3
    assert router.inline_fallbacks == 0
    assert rec.actions.count("shard_requeued") == 3
    assert rec.actions.count("shard_inline") == 0


def test_designed_inline_last_shard_emits_nothing():
    """The submitting thread always routes the last shard inline — that
    is the design, not a recovery, so a healthy batch emits no
    resilience events and bumps no counters."""
    a = make_random_assignment(16, random.Random(9))
    plan = compile_frame_plan(a)
    pool = WorkerPool(4)
    rec = RecordingObserver()
    router = ShardedBatchRouter(pool, observer=rec)
    try:
        mat, out = _routed(router, plan, 16)
    finally:
        pool.shutdown()
    assert np.array_equal(out, plan.apply_batch(mat))
    assert router.requeues == 0
    assert router.inline_fallbacks == 0
    assert rec.actions == []
