"""Deterministic, crash-safe row-sharding of batched frame routing.

A compiled :class:`~repro.core.fastplan.FramePlan` routes a whole
``(batch, n)`` payload matrix with a couple of gathers; the batch axis
is embarrassingly parallel because every row is an independent frame.
:class:`ShardedBatchRouter` exploits exactly that: it splits the batch
into contiguous row ranges, routes each range on a
:class:`~repro.parallel.workers.WorkerPool` thread against *views* of
the input (zero copies — NumPy basic slicing), and writes each shard's
result into a disjoint slice of one preallocated output matrix.

Determinism is structural, not scheduled: shard boundaries are a pure
function of ``(batch, workers)`` (:func:`shard_bounds`), each shard
owns a disjoint output range, and the caller blocks until every shard
completes — so the merged matrix is bit-identical to the single-thread
result regardless of which worker finishes first.

Worker failures never lose a slice.  A shard task that dies (its
future carries an exception, or the executor was shut down under it)
is requeued on the pool exactly once; if the requeue also fails, the
submitting thread routes that shard inline — so ``route_batch`` always
returns complete, correct deliveries, and only a *deterministically*
poisoned plan (one that fails inline too) propagates an exception.  An
optional :class:`~repro.resilience.budget.DeadlineBudget` bounds every
future wait the same way: a shard that has not finished within the
budget is computed inline (the worker, if it ever runs, writes the
same bytes to the same disjoint slice, so the race is benign).
"""

from __future__ import annotations

import math
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import List, Optional, Tuple

import numpy as np

from ..core.fastplan import FramePlan
from ..obs.events import emit
from .workers import WorkerPool

__all__ = ["ShardedBatchRouter", "shard_bounds"]


def shard_bounds(batch: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``batch`` rows into at most ``workers`` contiguous ranges.

    Pure and deterministic: ``min(workers, batch)`` shards, sizes
    differing by at most one row, larger shards first.  ``batch == 0``
    yields no shards.

    >>> shard_bounds(10, 4)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    """
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = min(workers, batch)
    if shards == 0:
        return []
    base, extra = divmod(batch, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ShardedBatchRouter:
    """Route payload batches across a worker pool, merging deterministically.

    Args:
        pool: the :class:`~repro.parallel.workers.WorkerPool` shards run
            on.  The submitting thread always routes the *last* shard
            inline — it would otherwise idle while waiting, and on a
            single-core host that keeps the sharded path within noise
            of the sequential one.
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``parallel.shard`` events (``shard_requeued`` /
            ``shard_inline``) when a crashed or deadline-stranded shard
            is recovered.

    Attributes:
        requeues: crashed shard tasks *actually* resubmitted to the
            pool — a crash whose resubmission fails (executor shut down
            under it) counts only as an inline fallback, and the shard
            the submitting thread routes inline by design (the last
            one) never emits any resilience event.
        inline_fallbacks: shards ultimately routed on the submitting
            thread (requeue also failed, executor dead, or deadline
            spent waiting).
    """

    def __init__(self, pool: WorkerPool, observer: Optional[object] = None):
        self.pool = pool
        self.observer = observer
        self.requeues = 0
        self.inline_fallbacks = 0
        self.worker_target: Optional[int] = None

    def set_worker_target(self, target: Optional[int]) -> None:
        """Cap how many pool workers shard fan-out may use (the control
        plane's actuator hook).

        The pool's threads stay provisioned; the target only bounds the
        shard count :meth:`apply` computes, so scaling down cuts merge
        and wake-up overhead without touching thread lifecycle.  `None`
        restores the full pool.
        """
        if target is not None and target < 1:
            raise ValueError(f"worker_target must be >= 1, got {target}")
        self.worker_target = target

    @property
    def effective_workers(self) -> int:
        """Workers shard fan-out will actually use on the next batch."""
        if self.worker_target is None:
            return self.pool.workers
        return min(self.worker_target, self.pool.workers)

    def apply(
        self,
        plan: FramePlan,
        payload_matrix: np.ndarray,
        attempt: int = 0,
        budget=None,
    ) -> np.ndarray:
        """Equivalent of ``plan.apply_batch(payload_matrix, attempt)``.

        The matrix is sharded along axis 0; dtype semantics (object
        vs. numeric fill) are the plan's own, because every shard *is*
        an ``apply_batch`` call on a row-slice view.

        Args:
            plan: the compiled routing plan shared by every row.
            payload_matrix: the ``(batch, n)`` payload matrix.
            attempt: routing attempt number (fault sampling key).
            budget: optional
                :class:`~repro.resilience.budget.DeadlineBudget`; a
                shard still unfinished when it expires is computed
                inline instead of waited on, so the call returns
                complete deliveries without ever hanging.

        Returns:
            the ``(batch, n)`` delivered matrix, bit-identical to the
            sequential call.
        """
        mat = payload_matrix
        if not isinstance(mat, np.ndarray):
            mat = np.asarray(mat, dtype=object)
        bounds = shard_bounds(mat.shape[0], self.effective_workers)
        if len(bounds) <= 1:
            return plan.apply_batch(mat, attempt)
        out = np.empty(mat.shape, dtype=mat.dtype)
        tasks = [
            (lo, hi, self._submit(plan, mat, out, lo, hi, attempt))
            for lo, hi in bounds[:-1]
        ]
        lo, hi = bounds[-1]
        self._shard(plan, mat, out, lo, hi, attempt)
        for lo, hi, future in tasks:
            self._collect(plan, mat, out, lo, hi, attempt, future, budget)
        return out

    def _submit(self, plan, mat, out, lo, hi, attempt):
        """Dispatch one shard; ``None`` when the executor is dead
        (shut down concurrently) — the collector then routes inline."""
        try:
            return self.pool.submit(
                "shard", self._shard, plan, mat, out, lo, hi, attempt
            )
        except RuntimeError:
            return None

    def _collect(self, plan, mat, out, lo, hi, attempt, future, budget):
        """Await one shard, recovering crashes and deadline overruns.

        Recovery ladder: a dead submission or an expired wait routes
        inline; a crashed task is requeued exactly once, and a second
        crash routes inline — where a deterministic error (a poisoned
        plan) still propagates, by design: availability never trumps
        correctness.
        """
        requeued = False
        while True:
            if future is None:
                self._inline(plan, mat, out, lo, hi, attempt)
                return
            timeout = None
            if budget is not None and not budget.unlimited:
                timeout = budget.remaining_s
                if math.isinf(timeout):
                    timeout = None
            try:
                future.result(timeout=timeout)
                return
            except FuturesTimeoutError:
                # Deadline spent waiting.  Compute the slice inline:
                # the stranded worker, if it ever runs, writes the
                # identical bytes to the same disjoint range.
                self._inline(plan, mat, out, lo, hi, attempt)
                return
            except Exception:
                if requeued:
                    self._inline(plan, mat, out, lo, hi, attempt)
                    return
                requeued = True
                future = self._submit(plan, mat, out, lo, hi, attempt)
                if future is None:
                    # The executor died between the crash and the
                    # resubmission: nothing was requeued, so no
                    # ``shard_requeued`` event — the next loop pass
                    # routes inline (emitting ``shard_inline`` only).
                    continue
                self.requeues += 1
                emit(self.observer, "parallel.shard", "shard_requeued",
                     frames=hi - lo)

    def _inline(self, plan, mat, out, lo, hi, attempt) -> None:
        """Route one shard on the submitting thread (the last resort —
        and the guarantee that a batch always completes)."""
        self.inline_fallbacks += 1
        emit(self.observer, "parallel.shard", "shard_inline", frames=hi - lo)
        self._shard(plan, mat, out, lo, hi, attempt)

    @staticmethod
    def _shard(
        plan: FramePlan,
        mat: np.ndarray,
        out: np.ndarray,
        lo: int,
        hi: int,
        attempt: int,
    ) -> None:
        out[lo:hi] = plan.apply_batch(mat[lo:hi], attempt)
