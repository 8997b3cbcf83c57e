"""The thread-safe plan cache: the one piece left of the thread engine.

:class:`~repro.parallel.plan_cache.ConcurrentPlanCache` is a
lock-striped LRU plan cache with **single-flight compile
deduplication**: concurrent misses on the same assignment fingerprint
compile exactly once, every other thread waits on the in-flight future
and is counted as *coalesced*.  Several
:class:`~repro.core.brsmn.BRSMN` instances, one per thread, may share
one through their ``plan_cache=`` argument.

Nothing in the library builds one any more.  Thread sharding of
``route_batch`` (the worker pool, the sharded batch router and the
``workers`` option) was removed: a compiled frame is one NumPy
gather, and splitting it across threads measured 0.53-0.57x of one
thread on every host the benchmarks ran on (``docs/performance.md``).
The cache stays because the serving benchmark's tracer
(``benchmarks/serving/spans.py``) patches its ``get``; once that
import goes, this package can go with it.
"""

from .plan_cache import ConcurrentPlanCache

__all__ = ["ConcurrentPlanCache"]
