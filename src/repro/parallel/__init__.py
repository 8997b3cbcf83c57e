"""Multi-worker throughput engine for the fast routing path.

The paper's BRSMN is a *parallel* fabric — every recursion level routes
all of its blocks simultaneously — and the compiled fast engine
(:mod:`repro.core.fastplan`) already turned one frame into a handful of
NumPy gathers.  What remained serial was the *service* around it: one
thread compiled plans, routed batches and fed the fabric.  This
subpackage scales that service across a worker pool:

* :class:`~repro.parallel.plan_cache.ConcurrentPlanCache` — a
  lock-striped LRU plan cache with **single-flight compile
  deduplication**: concurrent misses on the same assignment
  fingerprint compile exactly once, every other thread waits on the
  in-flight future and is counted as *coalesced*;
* :class:`~repro.parallel.workers.WorkerPool` — a bounded executor
  with busy-worker accounting, emitting ``parallel.workers`` events so
  worker utilisation is observable like everything else;
* :class:`~repro.parallel.shard.ShardedBatchRouter` — splits a
  ``(batch, n)`` payload matrix into contiguous zero-copy row shards,
  routes each shard on the pool, and merges the results
  deterministically (shard boundaries depend only on the batch shape
  and worker count, never on timing);
* :class:`~repro.parallel.pipeline.CompileAheadPipeline` — overlaps
  :class:`~repro.core.fastplan.FramePlan` compilation with routing of
  already-compiled frames: a bounded prefetch queue fed by
  :meth:`~repro.core.fabric.MulticastFabric.run` lookahead (and the
  queueing simulator's next-slot packing) warms the cache on pool
  threads while the submitting thread routes.

Threads are the only sharding backend.  Once a plan is compiled a
frame is one gather, and ``np.take`` on numeric dtypes releases the
GIL, so there is no CPython-bound routing work for worker processes
to spread across cores.

Everything is configured through
:class:`~repro.core.config.NetworkConfig` — ``workers=`` sizes the
pool, ``compile_ahead=`` bounds the prefetch queue — and threaded
through :class:`~repro.core.brsmn.BRSMN`,
:class:`~repro.core.fabric.MulticastFabric`,
:class:`~repro.core.arrivals.QueueingSimulator` and the
``repro stats --workers N`` CLI.  See ``docs/performance.md`` for
tuning guidance (including why the NumPy gather kernels scale across
threads despite the GIL) and for the crash and determinism contract.
"""

from .plan_cache import ConcurrentPlanCache
from .pipeline import CompileAheadPipeline
from .shard import ShardedBatchRouter, shard_bounds
from .workers import WorkerPool

__all__ = [
    "CompileAheadPipeline",
    "ConcurrentPlanCache",
    "ShardedBatchRouter",
    "WorkerPool",
    "shard_bounds",
]
