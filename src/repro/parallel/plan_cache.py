"""A thread-safe plan cache: lock-striped LRU + single-flight compiles.

The base :class:`~repro.core.fastplan.PlanCache` is safe under one
coarse mutex, but a multi-worker router hits it from every thread, and
its weakness under concurrency is the *miss storm*: ``W`` workers cold
on the same hot assignment would compile the same
:class:`~repro.core.fastplan.FramePlan` ``W`` times (compilation is the
expensive step — ~7.5x the routing it produces at ``n = 1024``).  This
module fixes both ends:

* **lock striping** — the key space is partitioned over independent
  stripes (each its own mutex + LRU segment), so threads touching
  different assignments never contend on one lock;
* **single-flight deduplication** — a miss registers an in-flight
  future under the stripe lock before compiling *outside* it;
  concurrent misses on the same key find the future, are counted as
  *coalesced*, and wait for the leader's result instead of compiling
  again.  Duplicate concurrent misses therefore compile exactly once.

Event emission follows the base cache's discipline: payloads are
snapshotted inside the critical section and delivered outside it, in
that order, with the extra ``("fastplan.plan_cache", "coalesced")``
event for piggybacked lookups.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

from ..core.fastplan import FramePlan, PlanCache, compile_frame_plan
from ..core.multicast import MulticastAssignment
from ..obs.events import emit

__all__ = ["ConcurrentPlanCache"]


class _Stripe:
    """One independent cache segment: mutex, LRU map, in-flight table."""

    __slots__ = (
        "lock", "plans", "assignments", "used", "inflight", "hits",
        "misses", "coalesced",
    )

    def __init__(self):
        self.lock = threading.Lock()
        self.plans: "OrderedDict[str, FramePlan]" = OrderedDict()
        # Source assignment per cached key, for warm-restart snapshots
        # (fingerprints alone cannot rebuild a plan).
        self.assignments: Dict[str, MulticastAssignment] = {}
        # Cache-wide recency stamp per cached key, so a snapshot lists
        # entries in global LRU order, as PlanCache does.
        self.used: Dict[str, int] = {}
        self.inflight: Dict[str, Future] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0


class ConcurrentPlanCache:
    """Lock-striped LRU of compiled plans with single-flight compiles.

    Drop-in for :class:`~repro.core.fastplan.PlanCache` (same ``get`` /
    ``contains`` / ``clear`` surface, same cache keys via
    :meth:`make_key`), used by :class:`~repro.core.brsmn.BRSMN`
    whenever the config sets ``workers > 1``.

    Capacity is partitioned per stripe (``ceil(maxsize / stripes)``
    plans each), so eviction is LRU *within a stripe* — the standard
    striped-LRU trade: a globally exact LRU would reintroduce the
    single lock the stripes exist to avoid.  Fault-plan variants share
    their assignment's fingerprint prefix (``fingerprint@plan``) and
    therefore the stripe of the healthy plan, but remain distinct keys:
    concurrent eviction can never make a faulted lookup observe a
    healthy plan or vice versa.

    Args:
        maxsize: total retained plans across all stripes.
        observer: optional :class:`~repro.obs.events.Observer`
            receiving a ``fastplan.plan_cache`` event per hit / miss /
            coalesced wait / eviction / clear.
        stripes: independent lock-striped segments (>= 1).
    """

    make_key = staticmethod(PlanCache.make_key)

    def __init__(
        self,
        maxsize: int = 256,
        observer: Optional[object] = None,
        stripes: int = 8,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self.maxsize = maxsize
        self.observer = observer
        self._stripes: Tuple[_Stripe, ...] = tuple(
            _Stripe() for _ in range(min(stripes, maxsize))
        )
        self._quota = -(-maxsize // len(self._stripes))  # ceil division
        self._clock = itertools.count()

    # -- bookkeeping ----------------------------------------------------
    def _stripe(self, key: str) -> _Stripe:
        """The stripe owning ``key`` (stable within a process)."""
        return self._stripes[hash(key) % len(self._stripes)]

    def _size(self) -> int:
        """Total cached plans (lock-free sum; ``len(dict)`` is atomic)."""
        return sum(len(s.plans) for s in self._stripes)

    def __len__(self) -> int:
        return self._size()

    @property
    def stripe_count(self) -> int:
        """Number of independent lock-striped segments."""
        return len(self._stripes)

    @property
    def hits(self) -> int:
        """Lookups answered from a stripe's LRU segment."""
        return sum(s.hits for s in self._stripes)

    @property
    def misses(self) -> int:
        """Lookups that became the compiling leader."""
        return sum(s.misses for s in self._stripes)

    @property
    def coalesced(self) -> int:
        """Lookups that waited on another thread's in-flight compile."""
        return sum(s.coalesced for s in self._stripes)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without compiling (hits plus
        coalesced waits over all lookups)."""
        hits = self.hits + self.coalesced
        total = hits + self.misses
        return hits / total if total else 0.0

    # -- the cache protocol ---------------------------------------------
    def contains(
        self, assignment: MulticastAssignment, extra_key: str = ""
    ) -> bool:
        """True when the plan is cached *or already compiling* (no LRU
        refresh, no counters) — a lookup issued now would be served
        without starting a second compile."""
        key = self.make_key(assignment, extra_key)
        stripe = self._stripe(key)
        with stripe.lock:
            return key in stripe.plans or key in stripe.inflight

    def get(
        self,
        assignment: MulticastAssignment,
        compile_fn: Callable[[MulticastAssignment], FramePlan] = compile_frame_plan,
        extra_key: str = "",
    ) -> Tuple[FramePlan, bool]:
        """Fetch — or compile exactly once and memoise — a plan.

        Concurrent misses on the same key elect one *leader* (the first
        to register the in-flight future); everyone else waits on the
        future and returns the leader's plan with ``hit=True`` (they
        did not pay a compile).  If the leader's ``compile_fn`` raises,
        every waiter re-raises that exception and the key is left
        uncached, so a later lookup retries.

        Returns:
            ``(plan, hit)`` — ``hit`` is True when the plan came from
            the cache or from a coalesced wait.
        """
        key = self.make_key(assignment, extra_key)
        stripe = self._stripe(key)
        with stripe.lock:
            plan = stripe.plans.get(key)
            if plan is not None:
                stripe.hits += 1
                stripe.plans.move_to_end(key)
                stripe.used[key] = next(self._clock)
                kind = "hit"
                future = None
                leader = False
            else:
                future = stripe.inflight.get(key)
                if future is not None:
                    stripe.coalesced += 1
                    kind = "coalesced"
                    leader = False
                else:
                    future = stripe.inflight[key] = Future()
                    stripe.misses += 1
                    kind = "miss"
                    leader = True
            size = self._size()
        emit(self.observer, "fastplan.plan_cache", kind, key=key, size=size)
        if plan is not None:
            return plan, True
        if not leader:
            return future.result(), True

        try:
            plan = compile_fn(assignment)
        except BaseException as exc:
            with stripe.lock:
                stripe.inflight.pop(key, None)
            future.set_exception(exc)
            raise
        evicted = []
        with stripe.lock:
            stripe.plans[key] = plan
            stripe.assignments[key] = assignment
            stripe.used[key] = next(self._clock)
            stripe.inflight.pop(key, None)
            while len(stripe.plans) > self._quota:
                old, _ = stripe.plans.popitem(last=False)
                stripe.assignments.pop(old, None)
                stripe.used.pop(old, None)
                evicted.append((old, self._size()))
        future.set_result(plan)
        for old, size in evicted:
            emit(self.observer, "fastplan.plan_cache", "evict", key=old,
                 size=size)
        return plan, False

    def snapshot_assignments(self) -> List[MulticastAssignment]:
        """The cached entries' source assignments, LRU order across all
        stripes (oldest first, as in
        :meth:`~repro.core.fastplan.PlanCache.snapshot_assignments`) —
        the payload of a warm-restart snapshot
        (:class:`~repro.resilience.snapshot.FabricSnapshot`)."""
        entries: List[Tuple[int, MulticastAssignment]] = []
        for stripe in self._stripes:
            with stripe.lock:
                entries.extend(
                    (stripe.used[key], stripe.assignments[key])
                    for key in stripe.plans
                    if key in stripe.assignments
                )
        entries.sort(key=lambda entry: entry[0])
        return [assignment for _, assignment in entries]

    def clear(self) -> None:
        """Drop every cached plan and reset the counters.

        In-flight compiles are *not* cancelled — their leaders insert
        when they finish (a clear-during-compile keeping the freshest
        plan is the least surprising outcome) — but their waiters keep
        their futures, so nobody deadlocks.
        """
        for stripe in self._stripes:  # consistent order; no nesting
            with stripe.lock:
                stripe.plans.clear()
                stripe.assignments.clear()
                stripe.used.clear()
                stripe.hits = 0
                stripe.misses = 0
                stripe.coalesced = 0
        emit(self.observer, "fastplan.plan_cache", "clear", key="", size=0)
