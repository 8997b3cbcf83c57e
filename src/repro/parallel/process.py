"""Multiprocess shard routing: shared-memory payloads, pickle-safe plans.

The threaded :class:`~repro.parallel.shard.ShardedBatchRouter` scales
exactly as far as the GIL lets it: numeric gathers (``np.take``)
release the GIL and overlap, but object-dtype payloads — and every
CPython-bound bookkeeping stage around them — serialise on one core.
This module is the past-the-GIL backend behind
``NetworkConfig(executor="process")``:

* **Payload transport.**  Numeric matrices are placed in
  ``multiprocessing.shared_memory`` — workers route *views* of the
  shared input into disjoint row ranges of a shared output, so the
  payload bytes cross the process boundary zero-copy, exactly like the
  threaded path's NumPy views.  Object-dtype matrices cannot live in
  flat shared memory, so their shards travel as pickled chunks; the
  pickling is the price of finally running ``mat[:, gather]`` on more
  than one core.
* **Plan transport.**  Compiled :class:`~repro.core.fastplan.FramePlan`
  objects carry fault objects and per-BSN statistics that have no
  business crossing a pickle boundary per shard.  A
  :class:`PlanEnvelope` ships only what routing needs — a content
  fingerprint, ``delivery_src`` and the attempt's pre-sampled casualty
  set — and workers memoise the materialised plan in a process-local
  LRU.  Once every worker has plausibly seen a plan, the parent ships
  *slim* envelopes (fingerprint only); a worker whose cache misses
  answers with a sentinel and the parent re-ships the arrays
  (recompile-on-miss, never a wrong answer).
* **Resilience.**  The crash contract is the threaded router's,
  verbatim: a worker process that dies mid-shard is requeued exactly
  once (respawning the broken pool), and a second failure routes the
  shard inline on the submitting thread — so batches always complete,
  bit-identical to the sequential gather.  The same
  ``shard_requeued`` / ``shard_inline`` events are emitted (stage
  ``parallel.process``), plus events for the process-specific
  machinery (``repro_parallel_proc_*`` metric families): task
  lifecycle, envelope shipments, shared-memory bytes and pool
  respawns.

Determinism is structural, exactly as in the threaded router: shard
bounds are a pure function of ``(batch, workers)``, every shard owns a
disjoint output range, and a worker routes its rows through the *same*
``FramePlan.apply_batch`` code path the sequential call uses — the
envelope pre-folds the attempt's casualties into ``lost_outputs``, so
``apply_batch(chunk, 0)`` in the worker computes the identical bytes.
See ``docs/executors.md`` for the full decision table and lifecycle.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import threading
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.fastplan import FramePlan
from ..obs.events import emit
from .shard import shard_bounds

__all__ = ["PlanEnvelope", "ProcessShardRouter", "ProcessWorkerPool"]


@dataclass(frozen=True)
class PlanEnvelope:
    """A pickle-safe routing plan, ready to cross a process boundary.

    A full envelope carries the plan's ``delivery_src`` gather and the
    routing attempt's pre-sampled casualty set (``dropped``) next to a
    content fingerprint (``key``); a *slim* envelope carries the
    fingerprint alone and relies on the worker's local cache.  Fault
    objects, BSN statistics and observers never travel — workers need
    none of them to route payload rows.

    Attributes:
        key: content fingerprint — SHA-1 of the ``delivery_src`` bytes
            plus the sorted casualty set, so the same assignment routed
            on a different attempt (different flaky drops) gets a
            different key.
        n: network size.
        delivery_src: the gather array, or ``None`` in a slim envelope.
        dropped: sorted casualty outputs, or ``None`` in a slim
            envelope.
    """

    key: str
    n: int
    delivery_src: Optional[np.ndarray] = None
    dropped: Optional[Tuple[int, ...]] = None

    @property
    def slim(self) -> bool:
        """True when only the fingerprint travels."""
        return self.delivery_src is None

    @classmethod
    def from_plan(cls, plan: FramePlan, attempt: int = 0) -> "PlanEnvelope":
        """Wrap a compiled plan for one routing attempt.

        The attempt's flaky-link drops are sampled *here*, in the
        parent — the whole batch shares one attempt, so the casualty
        set is a constant of the envelope and workers never see the
        fault objects (whose ``drop_mask`` closures are exactly the
        state a pickle boundary should not carry).
        """
        dropped = tuple(sorted(plan.casualties(attempt)))
        digest = hashlib.sha1(
            np.ascontiguousarray(plan.delivery_src).tobytes()
        ).hexdigest()
        key = f"{digest}@{','.join(map(str, dropped))}" if dropped else digest
        return cls(
            key=key,
            n=plan.n,
            delivery_src=np.asarray(plan.delivery_src, dtype=np.int64),
            dropped=dropped,
        )

    def thin(self) -> "PlanEnvelope":
        """The slim (fingerprint-only) form of this envelope."""
        return PlanEnvelope(key=self.key, n=self.n)

    def materialise(self) -> FramePlan:
        """Rebuild a routable :class:`FramePlan` from a full envelope.

        The casualties are already folded into ``lost_outputs``, so
        ``apply_batch(chunk, 0)`` on the materialised plan computes
        bytes identical to ``apply_batch(chunk, attempt)`` on the
        original — same code path, same fill discipline.
        """
        if self.slim:
            raise ValueError("cannot materialise a slim PlanEnvelope")
        return FramePlan(
            n=self.n,
            delivery_src=np.asarray(self.delivery_src, dtype=np.int64),
            lost_outputs=tuple(self.dropped),
        )


# ---------------------------------------------------------------------------
# Worker-process side.  Everything below the parent ships to must be
# module-level (picklable by reference) and free of parent state.

_PLAN_CACHE_CAP = 64
_MISS = "__plan_envelope_miss__"
_OK = "__shard_ok__"

# Process-local plan cache: envelope key -> materialised FramePlan.
_worker_plans: "OrderedDict[str, FramePlan]" = OrderedDict()

# Test seam: when set (inherited over fork, or installed by an
# initializer), workers call it with (lo, hi) before routing — tests
# use it to crash or poison a specific shard task deterministically.
_CRASH_HOOK: Optional[Callable[[int, int], None]] = None

# Whether this process shares the parent's resource-tracker process.
# Fork-started workers inherit the parent's tracker (and this flag,
# set True before forking): attaching a segment is then an idempotent
# re-registration and must NOT be unregistered, or the parent's own
# registration disappears with it.  Spawn-started workers re-import
# this module (flag stays False) and run their own tracker, which
# would unlink the parent's segment on worker exit — there the attach
# must be unregistered.
_TRACKER_SHARED = False


def _resolve_plan(envelope: PlanEnvelope) -> Optional[FramePlan]:
    """The worker's plan lookup: local cache, else materialise, else miss."""
    plan = _worker_plans.get(envelope.key)
    if plan is not None:
        _worker_plans.move_to_end(envelope.key)
        return plan
    if envelope.slim:
        return None
    plan = envelope.materialise()
    _worker_plans[envelope.key] = plan
    while len(_worker_plans) > _PLAN_CACHE_CAP:
        _worker_plans.popitem(last=False)
    return plan


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the segment with this
    process's resource tracker; when that tracker is the worker's own
    (spawn start method) it would unlink the *parent's* segment on
    worker exit, so the attach is unregistered — ownership stays where
    it belongs (the parent creates, the parent unlinks).  A fork-shared
    tracker (see ``_TRACKER_SHARED``) needs no correction.
    """
    shm = shared_memory.SharedMemory(name=name)
    if not _TRACKER_SHARED:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


def _route_shard_shm(
    envelope: PlanEnvelope,
    in_name: str,
    out_name: str,
    shape: Tuple[int, int],
    dtype_str: str,
    lo: int,
    hi: int,
):
    """Route rows ``[lo, hi)`` of a shared-memory numeric matrix.

    Returns ``_OK`` (the result is already in the shared output) or
    ``_MISS`` when a slim envelope found no cached plan.
    """
    if _CRASH_HOOK is not None:
        _CRASH_HOOK(lo, hi)
    plan = _resolve_plan(envelope)
    if plan is None:
        return _MISS
    in_shm = _attach(in_name)
    out_shm = _attach(out_name)
    try:
        dtype = np.dtype(dtype_str)
        mat = np.ndarray(shape, dtype=dtype, buffer=in_shm.buf)
        out = np.ndarray(shape, dtype=dtype, buffer=out_shm.buf)
        out[lo:hi] = plan.apply_batch(mat[lo:hi], 0)
        del mat, out
    finally:
        for shm in (in_shm, out_shm):
            try:
                shm.close()
            except BufferError:  # a view outlived an exception path
                pass
    return _OK


def _route_shard_pickled(envelope: PlanEnvelope, chunk, lo: int, hi: int):
    """Route one pickled (object-dtype) chunk; returns the routed chunk
    or ``_MISS`` when a slim envelope found no cached plan."""
    if _CRASH_HOOK is not None:
        _CRASH_HOOK(lo, hi)
    plan = _resolve_plan(envelope)
    if plan is None:
        return _MISS
    return plan.apply_batch(chunk, 0)


# ---------------------------------------------------------------------------
# Parent side.


class ProcessWorkerPool:
    """A lazily-started, instrumented process pool of fixed size.

    The process twin of :class:`~repro.parallel.workers.WorkerPool`:
    same lazy start, same idempotent/restartable :meth:`shutdown`, same
    busy accounting — but emitting ``parallel.process`` events
    (observers stay in the parent; nothing observational crosses the
    pickle boundary).
    The ``fork`` start method is preferred where available (workers
    inherit the imported modules instead of re-importing them), with
    the platform default as fallback; worker entry points are
    module-level either way.

    Attributes:
        workers: configured pool size.
        respawns: times the pool was recreated after a worker process
            died (a :class:`BrokenProcessPool` poisons the whole
            executor, so recovery is respawn-and-resubmit).
    """

    def __init__(self, workers: int, observer: Optional[object] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.observer = observer
        self.respawns = 0
        self._lock = threading.Lock()
        self._busy = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def busy(self) -> int:
        """Shard tasks currently in flight on the pool."""
        with self._lock:
            return self._busy

    @staticmethod
    def _context():
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                ctx = self._context()
                if ctx.get_start_method() == "fork":
                    # Start the tracker before forking so every worker
                    # inherits it (and the flag telling _attach so).
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                    global _TRACKER_SHARED
                    _TRACKER_SHARED = True
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
                )
            return self._executor

    def submit(self, kind: str, fn: Callable, *args) -> Future:
        """Dispatch ``fn(*args)`` to a worker process.

        Raises whatever the executor raises — a dead executor raises
        :class:`RuntimeError`, a crashed pool
        :class:`BrokenProcessPool`; the router turns those into inline
        fallback and respawn-and-resubmit respectively.
        """
        future = self._ensure_executor().submit(fn, *args)
        with self._lock:
            self._busy += 1
            busy = self._busy
        emit(self.observer, "parallel.process", "start", task=kind,
             workers=self.workers, busy=busy)
        future.add_done_callback(self._make_done_callback(kind))
        return future

    def _make_done_callback(self, kind: str):
        def _done(_future) -> None:
            with self._lock:
                self._busy -= 1
                busy = self._busy
            emit(self.observer, "parallel.process", "done", task=kind,
                 workers=self.workers, busy=busy)

        return _done

    def respawn(self) -> None:
        """Replace a broken executor with a fresh one (crash recovery)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self.respawns += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        emit(self.observer, "parallel.process", "respawn",
             workers=self.workers, busy=self.busy)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool without leaking processes.  Idempotent; a
        later :meth:`submit` restarts it (mirroring ``WorkerPool``)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class ProcessShardRouter:
    """Route payload batches across worker *processes*, merging
    deterministically — the ``executor="process"`` twin of
    :class:`~repro.parallel.shard.ShardedBatchRouter`, same ``apply``
    signature, same control-plane actuator surface
    (:meth:`set_worker_target` / :attr:`effective_workers` /
    ``pool.workers``), same crash contract.

    Args:
        pool: the :class:`ProcessWorkerPool` shards run on.  The
            submitting thread always routes the last shard inline.
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``parallel.process`` events: ``shard_requeued``
            / ``shard_inline`` recoveries plus envelopes and
            shared-memory bytes.

    Attributes:
        requeues: crashed shard tasks actually resubmitted to the pool
            (after respawning it when the crash broke the executor).
        inline_fallbacks: shards ultimately routed on the submitting
            thread (requeue also failed, executor dead, or deadline
            spent waiting).
    """

    # Full-envelope shipments remembered per plan key; beyond this many
    # distinct keys the oldest bookkeeping is dropped (a re-ship then
    # costs one redundant full envelope, never a wrong answer).
    _SENDS_CAP = 256

    def __init__(self, pool: ProcessWorkerPool, observer: Optional[object] = None):
        self.pool = pool
        self.observer = observer
        self.requeues = 0
        self.inline_fallbacks = 0
        self.worker_target: Optional[int] = None
        self._envelope_sends: "OrderedDict[str, int]" = OrderedDict()

    def set_worker_target(self, target: Optional[int]) -> None:
        """Cap how many pool workers shard fan-out may use (the control
        plane's actuator hook — identical semantics to the threaded
        router: processes stay provisioned, only fan-out shrinks)."""
        if target is not None and target < 1:
            raise ValueError(f"worker_target must be >= 1, got {target}")
        self.worker_target = target

    @property
    def effective_workers(self) -> int:
        """Workers shard fan-out will actually use on the next batch."""
        if self.worker_target is None:
            return self.pool.workers
        return min(self.worker_target, self.pool.workers)

    def close(self) -> None:
        """Tear the process pool down without leaking processes."""
        self.pool.shutdown()

    # -- the batch entry point -----------------------------------------
    def apply(
        self,
        plan: FramePlan,
        payload_matrix: np.ndarray,
        attempt: int = 0,
        budget=None,
    ) -> np.ndarray:
        """Equivalent of ``plan.apply_batch(payload_matrix, attempt)``.

        Numeric matrices shard through shared memory (zero-copy views);
        object matrices shard as pickled chunks.  Either way the merged
        result is bit-identical to the sequential call — workers run
        the same ``apply_batch`` against a plan whose casualties were
        pre-sampled for this attempt.
        """
        mat = payload_matrix
        if not isinstance(mat, np.ndarray):
            mat = np.asarray(mat, dtype=object)
        bounds = shard_bounds(mat.shape[0], self.effective_workers)
        if len(bounds) <= 1:
            return plan.apply_batch(mat, attempt)
        envelope = PlanEnvelope.from_plan(plan, attempt)
        if mat.dtype == object:
            return self._apply_pickled(plan, envelope, mat, attempt, bounds, budget)
        return self._apply_shm(plan, envelope, mat, attempt, bounds, budget)

    # -- shared-memory numeric path ------------------------------------
    def _apply_shm(self, plan, envelope, mat, attempt, bounds, budget):
        mat = np.ascontiguousarray(mat)
        in_shm = shared_memory.SharedMemory(create=True, size=mat.nbytes)
        out_shm = shared_memory.SharedMemory(create=True, size=mat.nbytes)
        try:
            in_view = np.ndarray(mat.shape, dtype=mat.dtype, buffer=in_shm.buf)
            in_view[:] = mat
            out_view = np.ndarray(mat.shape, dtype=mat.dtype, buffer=out_shm.buf)
            obs = self.observer
            if obs is not None and obs.enabled:
                emit(obs, "parallel.process", "shm", bytes=2 * mat.nbytes,
                     workers=self.pool.workers, busy=self.pool.busy)
            names = (in_shm.name, out_shm.name, mat.shape, mat.dtype.str)

            def submit(lo, hi, force_full=False):
                env = self._ship(envelope, force_full)
                return self._dispatch(
                    "shard_shm", _route_shard_shm, env, *names, lo, hi
                )

            tasks = [(lo, hi, submit(lo, hi)) for lo, hi in bounds[:-1]]
            last_lo, last_hi = bounds[-1]
            out_view[last_lo:last_hi] = plan.apply_batch(
                mat[last_lo:last_hi], attempt
            )
            for lo, hi, future in tasks:
                self._collect(
                    future,
                    redo=lambda lo=lo, hi=hi: submit(lo, hi, force_full=True),
                    inline=lambda lo=lo, hi=hi: out_view.__setitem__(
                        slice(lo, hi), plan.apply_batch(mat[lo:hi], attempt)
                    ),
                    on_result=None,
                    budget=budget,
                    frames=hi - lo,
                )
            result = np.array(out_view, copy=True)
            del in_view, out_view
        finally:
            for shm in (in_shm, out_shm):
                try:
                    shm.close()
                except BufferError:  # a view survived an exception path
                    pass
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        return result

    # -- pickled object-dtype path -------------------------------------
    def _apply_pickled(self, plan, envelope, mat, attempt, bounds, budget):
        out = np.empty(mat.shape, dtype=object)

        def submit(lo, hi, force_full=False):
            env = self._ship(envelope, force_full)
            return self._dispatch(
                "shard_pickled", _route_shard_pickled, env, mat[lo:hi], lo, hi
            )

        tasks = [(lo, hi, submit(lo, hi)) for lo, hi in bounds[:-1]]
        last_lo, last_hi = bounds[-1]
        out[last_lo:last_hi] = plan.apply_batch(mat[last_lo:last_hi], attempt)
        for lo, hi, future in tasks:
            self._collect(
                future,
                redo=lambda lo=lo, hi=hi: submit(lo, hi, force_full=True),
                inline=lambda lo=lo, hi=hi: out.__setitem__(
                    slice(lo, hi), plan.apply_batch(mat[lo:hi], attempt)
                ),
                on_result=lambda chunk, lo=lo, hi=hi: out.__setitem__(
                    slice(lo, hi), chunk
                ),
                budget=budget,
                frames=hi - lo,
            )
        return out

    # -- dispatch / recovery machinery ---------------------------------
    def _ship(self, envelope: PlanEnvelope, force_full: bool) -> PlanEnvelope:
        """Decide full vs slim shipment for this task's plan.

        Full envelopes go out until every worker has plausibly cached
        the plan (one shipment per pool worker); after that only the
        fingerprint travels.  A respawned pool starts cold, so the
        bookkeeping resets with it (see :meth:`_dispatch`).
        """
        sends = self._envelope_sends.get(envelope.key, 0)
        slim = not force_full and sends >= self.pool.workers
        obs = self.observer
        if obs is not None and obs.enabled:
            emit(obs, "parallel.process", "envelope",
                 shipment="slim" if slim else "full",
                 workers=self.pool.workers, busy=self.pool.busy)
        if slim:
            return envelope.thin()
        self._envelope_sends[envelope.key] = sends + 1
        self._envelope_sends.move_to_end(envelope.key)
        while len(self._envelope_sends) > self._SENDS_CAP:
            self._envelope_sends.popitem(last=False)
        return envelope

    def _dispatch(self, kind, fn, *args):
        """Submit one task; respawn-and-retry a broken pool once;
        ``None`` when the executor is dead (shut down) — the collector
        then routes inline."""
        try:
            return self.pool.submit(kind, fn, *args)
        except BrokenProcessPool:
            self.pool.respawn()
            self._envelope_sends.clear()
            try:
                return self.pool.submit(kind, fn, *args)
            except RuntimeError:
                return None
        except RuntimeError:
            return None

    def _collect(self, future, redo, inline, on_result, budget, frames):
        """Await one shard, recovering crashes, envelope misses and
        deadline overruns.

        Recovery ladder (the threaded router's, plus the envelope
        protocol): a dead submission or an expired wait routes inline;
        a slim-envelope cache miss re-ships the arrays (not a failure,
        so not a requeue); a crashed task is requeued exactly once —
        respawning the pool when the crash broke it — and a second
        crash routes inline, where a deterministic error still
        propagates (availability never trumps correctness).  As in the
        threaded router, a requeue is only counted/emitted when the
        resubmission actually lands on the pool.
        """
        requeued = False
        while True:
            if future is None:
                self._inline(inline, frames)
                return
            timeout = None
            if budget is not None and not budget.unlimited:
                timeout = budget.remaining_s
                if math.isinf(timeout):
                    timeout = None
            try:
                result = future.result(timeout=timeout)
            except FuturesTimeoutError:
                self._inline(inline, frames)
                return
            except Exception:
                if requeued:
                    self._inline(inline, frames)
                    return
                requeued = True
                future = redo()
                if future is None:
                    continue
                self.requeues += 1
                emit(self.observer, "parallel.process", "shard_requeued",
                     frames=frames)
                continue
            if isinstance(result, str) and result == _MISS:
                obs = self.observer
                if obs is not None and obs.enabled:
                    emit(obs, "parallel.process", "envelope", shipment="miss",
                         workers=self.pool.workers, busy=self.pool.busy)
                future = redo()
                continue
            if on_result is not None:
                on_result(result)
            return

    def _inline(self, inline, frames: int) -> None:
        self.inline_fallbacks += 1
        emit(self.observer, "parallel.process", "shard_inline",
             frames=frames)
        inline()
