"""Bounded worker pool with busy accounting and observability.

:class:`WorkerPool` is a thin, instrumented wrapper around
:class:`concurrent.futures.ThreadPoolExecutor`.  Threads are the
default vehicle because the fast engine's hot loops are NumPy gather
kernels, and ``np.take`` on numeric dtypes releases the GIL for the
duration of the copy, so shards genuinely overlap on multicore hosts
while plans, payload views and the output matrix are shared zero-copy.
Object-dtype payloads do hold the GIL; see ``docs/performance.md`` for
when more workers stop paying.

Every task emits a pair of ``parallel.workers`` events (``start`` /
``done``) carrying the pool size and the busy-worker count, which
:class:`~repro.obs.metrics_observer.MetricsObserver` folds into the
``repro_parallel_*`` metric families.  With no observer (or a disabled
one) a task pays two lock-protected counter bumps and nothing else.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

from ..obs.events import emit

__all__ = ["WorkerPool"]


class WorkerPool:
    """A lazily-started, instrumented thread pool of fixed size.

    Args:
        workers: pool size (>= 1).  :class:`~repro.core.brsmn.BRSMN`
            builds a pool only for ``workers > 1``; a 1-worker pool is
            still valid (the sharded router then routes inline).
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``start`` / ``done`` events.

    The underlying executor is created on first :meth:`submit`, so
    configuring ``workers=4`` costs nothing until parallel work is
    actually dispatched.
    """

    def __init__(self, workers: int, observer: Optional[object] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.observer = observer
        self._lock = threading.Lock()
        self._busy = 0
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def busy(self) -> int:
        """Tasks currently executing (the utilisation numerator)."""
        with self._lock:
            return self._busy

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-worker",
                )
            return self._executor

    def submit(self, kind: str, fn: Callable, *args, **kwargs) -> Future:
        """Dispatch ``fn(*args, **kwargs)`` to the pool.

        Args:
            kind: task label for observability (the sharded router
                uses ``"shard"``); becomes the ``kind`` label of
                ``repro_parallel_tasks_total``.

        Returns:
            the task's :class:`~concurrent.futures.Future`; exceptions
            propagate through ``result()`` as usual.
        """
        return self._ensure_executor().submit(self._run, kind, fn, args, kwargs)

    def _run(self, kind: str, fn: Callable, args, kwargs):
        obs = self.observer
        observed = obs is not None and obs.enabled
        with self._lock:
            self._busy += 1
            busy = self._busy
        if observed:
            emit(obs, "parallel.workers", "start", task=kind,
                 workers=self.workers, busy=busy)
        try:
            return fn(*args, **kwargs)
        finally:
            with self._lock:
                self._busy -= 1
                busy = self._busy
            if observed:
                emit(obs, "parallel.workers", "done", task=kind,
                     workers=self.workers, busy=busy)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.  Idempotent; a later :meth:`submit` restarts it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
