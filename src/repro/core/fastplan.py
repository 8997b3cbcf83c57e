"""End-to-end routing plans: a whole BRSMN pass as composed gathers.

The reference :class:`~repro.core.brsmn.BRSMN` simulates every 2x2
switch of every BSN level in interpreted Python — ``O(n log^2 n)``
switch visits per frame.  This module compiles the *same* recursive
routing into array form:

* :func:`compile_level_gather` runs one BRSMN recursion level — ``2^k``
  side-by-side BSNs of size ``n / 2^k`` — as a batch: the vectorised
  scatter kernel (:mod:`repro.rbn.fast_scatter`) composed with the
  vectorised epsilon-dividing + bit-sorting kernels
  (:mod:`repro.rbn.fast`) yields one flat ``(src, role)`` gather for
  the whole level;
* :func:`compile_frame_plan` chains the levels.  It tracks, per output
  address, the current *position* of the message copy that will deliver
  there (``owner``) and, per position, the original input feeding it
  (``origin``) — both plain integer arrays updated by gathers — and
  needs no per-message Python at all.  The result is a
  :class:`FramePlan` whose ``delivery_src[o]`` is the input index
  delivered to output ``o``;
* :class:`FramePlan` applies a compiled plan to any payload vector — or
  to a whole ``(batch, n)`` payload matrix, routing many frames that
  share an assignment in one fancy-indexing gather;
* :class:`PlanCache` memoises compiled plans under the canonical
  assignment fingerprint
  (:func:`repro.core.serialization.assignment_fingerprint`), with
  hit/miss counters, because real traffic — hotspots, conference
  sessions, replicated writes — repeats assignments far more often than
  it invents new ones.

The compiled plan is *derived from the paper's own algorithms* (Tables
3-6 vectorised), not from the assignment's inverse map, so the fast
engine exercises the same mathematics as the reference engine; the two
are property-tested delivery-identical in
``tests/core/test_fast_engine.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidAssignmentError, RoutingInvariantError
from ..obs.events import Event, emit
from ..rbn.fast import fast_divide_epsilons_batch, fast_sort_permutation_batch
from ..rbn.fast_scatter import (
    CODE_ALPHA,
    CODE_EPS,
    CODE_ONE,
    CODE_ZERO,
    fast_scatter_gather_batch,
)
from ..rbn.permutations import check_network_size
from .bsn import BsnFrameStats
from .multicast import MulticastAssignment
from .serialization import assignment_fingerprint

__all__ = [
    "compile_level_gather",
    "compile_frame_plan",
    "FramePlan",
    "PlanCache",
]


def compile_level_gather(
    codes: np.ndarray, stage_ns: Optional[Dict[str, int]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Compile one BRSMN level (a batch of BSNs) into a flat gather.

    Args:
        codes: ``(blocks, size)`` matrix of scatter tag codes — each row
            is one BSN's input frame at this recursion level.
        stage_ns: optional profiling dict — when given, wall-clock
            nanoseconds of the ``scatter`` and ``quasisort`` stages are
            added under those keys (``perf_counter_ns`` spans).

    Returns:
        ``(src, role)`` flat arrays over the row-major layout: output
        position ``p`` of the level takes the cell at position
        ``src[p]``; ``role`` is 0 for unicast moves, 1/2 for the
        tag-0/tag-1 copy of a split alpha (see
        :class:`~repro.rbn.fast_scatter.ScatterGather`).

    Raises:
        RoutingInvariantError: if a block violates the BSN input
            constraint (paper eq. (2)).
    """
    codes = np.asarray(codes, dtype=np.int64)
    blocks, size = codes.shape
    half = size // 2
    n0 = (codes == CODE_ZERO).sum(axis=1)
    n1 = (codes == CODE_ONE).sum(axis=1)
    na = (codes == CODE_ALPHA).sum(axis=1)
    if np.any(n0 + na > half) or np.any(n1 + na > half):
        bad = int(np.argmax((n0 + na > half) | (n1 + na > half)))
        raise RoutingInvariantError(
            "BSN input constraint (eq. 2) violated: "
            f"n0={int(n0[bad])}, n1={int(n1[bad])}, na={int(na[bad])}, "
            f"n/2={half} (block {bad})"
        )

    # Scatter pass (Theorem 2): eliminate every alpha, s = 0 per block.
    t = perf_counter_ns() if stage_ns is not None else 0
    scat = fast_scatter_gather_batch(codes, 0)
    scat_codes = scat.output_codes(codes)
    if stage_ns is not None:
        now = perf_counter_ns()
        stage_ns["scatter"] = stage_ns.get("scatter", 0) + (now - t)
        t = now

    # Quasisort pass (Section 5.2) on the scatter outputs: re-encode for
    # the quasisort kernels ({0, 1, EPS} -> {0, 1, 2}), divide epsilons,
    # then ascending bit sort to C(n/2, n/2) over the one-population.
    quasi = np.where(scat_codes == CODE_EPS, 2, scat_codes).reshape(blocks, size)
    divided = fast_divide_epsilons_batch(quasi)
    one_mask = (divided == 1) | (divided == 4)
    perm_local = fast_sort_permutation_batch(one_mask.astype(np.int64), half)
    offsets = (np.arange(blocks, dtype=np.int64) * size)[:, None]
    perm = (perm_local + offsets).reshape(blocks * size)
    if stage_ns is not None:
        stage_ns["quasisort"] = stage_ns.get("quasisort", 0) + (
            perf_counter_ns() - t
        )

    # Compose: quasisort permutes the scatter outputs.
    return scat.src[perm], scat.role[perm]


@dataclass(frozen=True)
class FramePlan:
    """A compiled end-to-end routing plan for one multicast assignment.

    When compiled under a :class:`~repro.faults.plan.FaultPlan`, the
    plan also carries the fault consequences: structural perturbations
    (stuck-crossed cells) are already folded into ``delivery_src``,
    deterministic payload losses (dead cells) are listed in
    ``lost_outputs``, and probabilistic losses (flaky links) are kept as
    *exposure* — which outputs ride which flaky cell — so
    :meth:`casualties` can sample them per routing attempt without
    recompiling.

    Attributes:
        n: network size.
        delivery_src: int array — ``delivery_src[o]`` is the input index
            whose message the network delivers to output ``o``, or -1
            for an idle output.
        bsn_stats: per-BSN frame statistics in level order (outermost
            level first, blocks top-to-bottom within a level); the same
            multiset as the reference engine's depth-first list.
        final_switches: last-level 2x2 switches fired (= n/2).
        lost_outputs: outputs whose payload a dead cell destroys on
            every attempt.
        flaky_exposure: ``(fault, port0_outputs, port1_outputs)``
            triples — outputs riding each flaky cell's two links.
        fault_hits: ``(fault, outputs)`` pairs of the structural faults
            (stuck / dead) that touched this assignment's traffic.
    """

    n: int
    delivery_src: np.ndarray
    bsn_stats: Tuple[BsnFrameStats, ...] = ()
    final_switches: int = 0
    lost_outputs: Tuple[int, ...] = ()
    flaky_exposure: Tuple[Tuple[object, Tuple[int, ...], Tuple[int, ...]], ...] = ()
    fault_hits: Tuple[Tuple[object, Tuple[int, ...]], ...] = ()

    @property
    def total_splits(self) -> int:
        """Total alpha splits across all BSN levels."""
        return sum(st.splits for st in self.bsn_stats)

    @property
    def has_faults(self) -> bool:
        """True when the plan was compiled under a non-empty fault plan
        that touched this assignment's traffic."""
        return bool(self.lost_outputs or self.flaky_exposure or self.fault_hits)

    def casualties(self, attempt: int = 0) -> frozenset:
        """Outputs whose payload is lost on the given routing attempt.

        Dead-cell losses are constant; flaky-link losses are sampled
        deterministically per ``(fault, attempt)`` — the same stream the
        reference engine draws from, so both engines silence exactly
        the same outputs.
        """
        if not self.lost_outputs and not self.flaky_exposure:
            return frozenset()
        dropped = set(self.lost_outputs)
        for fault, port0, port1 in self.flaky_exposure:
            drop0, drop1 = fault.drop_mask(attempt)
            if drop0:
                dropped.update(port0)
            if drop1:
                dropped.update(port1)
        return frozenset(dropped)

    def flaky_hits(self, attempt: int = 0) -> List[Tuple[object, Tuple[int, ...]]]:
        """The flaky faults that dropped traffic on this attempt."""
        hits: List[Tuple[object, Tuple[int, ...]]] = []
        for fault, port0, port1 in self.flaky_exposure:
            drop0, drop1 = fault.drop_mask(attempt)
            dropped = (port0 if drop0 else ()) + (port1 if drop1 else ())
            if dropped:
                hits.append((fault, tuple(sorted(dropped))))
        return hits

    def apply(self, payloads: Sequence, attempt: int = 0) -> List:
        """Route one payload frame; returns the per-output payloads.

        Args:
            payloads: length-``n`` sequence, ``payloads[i]`` being input
                ``i``'s payload.
            attempt: routing attempt number (selects the flaky-link
                drops of a faulted plan; irrelevant otherwise).

        Returns:
            A list where entry ``o`` is the delivered payload (``None``
            for idle outputs and fault casualties).
        """
        if len(payloads) != self.n:
            raise InvalidAssignmentError(
                f"expected {self.n} payloads, got {len(payloads)}"
            )
        out = [
            None if s < 0 else payloads[s]
            for s in self.delivery_src.tolist()
        ]
        if self.lost_outputs or self.flaky_exposure:
            for o in self.casualties(attempt):
                out[o] = None
        return out

    def apply_batch(self, payload_matrix, attempt: int = 0) -> np.ndarray:
        """Route a whole ``(batch, n)`` payload matrix in one gather.

        Two payload representations are supported:

        * an *object* matrix (also what any non-ndarray input is
          coerced to) — idle outputs and fault casualties deliver
          ``None``, matching :meth:`apply`;
        * a *numeric* ndarray (any non-object dtype) — the gather runs
          as :func:`numpy.take`, which releases the GIL for simple
          dtypes, so the sharded batch router
          (:mod:`repro.parallel.shard`) scales across threads; idle
          outputs and casualties deliver the dtype's zero (there is no
          ``None`` in a numeric array).  The result keeps the input
          dtype.

        Args:
            payload_matrix: ``(batch, n)`` array-like; row ``f`` holds
                frame ``f``'s per-input payloads.
            attempt: routing attempt number (flaky-link sampling; the
                whole batch shares one attempt).

        Returns:
            A ``(batch, n)`` array of delivered payloads, same dtype
            discipline as above.
        """
        if isinstance(payload_matrix, np.ndarray):
            mat = payload_matrix
        else:
            mat = np.asarray(payload_matrix, dtype=object)
        if mat.ndim != 2 or mat.shape[1] != self.n:
            raise InvalidAssignmentError(
                f"expected a (batch, {self.n}) payload matrix, got shape {mat.shape}"
            )
        idle = self.delivery_src < 0
        if mat.dtype == object:
            out = mat[:, np.maximum(self.delivery_src, 0)]
            fill = None
        else:
            out = np.take(mat, np.maximum(self.delivery_src, 0), axis=1)
            fill = mat.dtype.type(0)
        if idle.any():
            out[:, idle] = fill
        if self.lost_outputs or self.flaky_exposure:
            dropped = self.casualties(attempt)
            if dropped:
                out[:, sorted(dropped)] = fill
        return out


def compile_frame_plan(
    assignment: MulticastAssignment,
    observer=None,
    frame_id: int = -1,
    fault_plan=None,
) -> FramePlan:
    """Compile the full recursive BRSMN routing of one assignment.

    Runs every recursion level through :func:`compile_level_gather`,
    following each message copy by position (``owner``) and provenance
    (``origin``) arrays, exactly as the unrolled network would move it.

    Args:
        assignment: the multicast assignment to compile.
        observer: optional enabled :class:`~repro.obs.events.Observer` —
            when given, each recursion level emits a ``("fastplan",
            "level")`` :class:`~repro.obs.events.Event` with per-stage
            ``perf_counter_ns`` spans (``tag`` / ``scatter`` /
            ``quasisort`` / ``gather``) plus the level's split and
            switch-operation counts.
        frame_id: frame id to tag emitted spans with.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` —
            when non-empty, each fault plane is folded into the compiled
            plan right after its recursion level: stuck-crossed cells
            permute the tracking arrays (so ``delivery_src`` lands
            where the broken fabric actually delivers), dead cells
            contribute ``lost_outputs``, flaky cells contribute
            ``flaky_exposure``.  An empty plan compiles the identical
            healthy plan.

    Raises:
        RoutingInvariantError: if any level's input populations violate
            the paper's invariants (impossible for a valid assignment).
    """
    n = assignment.n
    m = check_network_size(n)
    emit = observer is not None and observer.enabled
    inject = fault_plan is not None and not fault_plan.is_empty
    fault_state = (
        {"lost": np.zeros(n, dtype=bool), "exposure": [], "hits": []}
        if inject
        else None
    )

    # owner[o]: current position of the copy that will deliver output o.
    owner = np.full(n, -1, dtype=np.int64)
    for i, dests in enumerate(assignment.destinations):
        for d in dests:
            owner[d] = i
    # origin[p]: original input of the message copy at position p.
    origin = np.where(owner_positions_active(assignment, n), np.arange(n), -1)

    stats: List[BsnFrameStats] = []
    outputs_idx = np.arange(n, dtype=np.int64)
    size = n
    while size > 2:
        half = size // 2
        blocks = n // size
        if emit:
            stage_ns: Dict[str, int] = {}
            t_level = t_stage = perf_counter_ns()

        # ---- tag each position from the outputs it still owns.
        active = owner >= 0
        own_pos = owner[active]
        upper_half = ((outputs_idx[active] // half) % 2) == 0
        up_cnt = np.zeros(n, dtype=np.int64)
        lo_cnt = np.zeros(n, dtype=np.int64)
        np.add.at(up_cnt, own_pos[upper_half], 1)
        np.add.at(lo_cnt, own_pos[~upper_half], 1)
        codes = np.full(n, CODE_EPS, dtype=np.int64)
        codes[(up_cnt > 0) & (lo_cnt == 0)] = CODE_ZERO
        codes[(up_cnt == 0) & (lo_cnt > 0)] = CODE_ONE
        codes[(up_cnt > 0) & (lo_cnt > 0)] = CODE_ALPHA
        codes2d = codes.reshape(blocks, size)

        # ---- per-BSN statistics (assignment-determined, so part of
        # the compiled plan, not recomputed per payload frame).
        m_blk = size.bit_length() - 1
        n0 = (codes2d == CODE_ZERO).sum(axis=1)
        n1 = (codes2d == CODE_ONE).sum(axis=1)
        na = (codes2d == CODE_ALPHA).sum(axis=1)
        ne = (codes2d == CODE_EPS).sum(axis=1)
        for b in range(blocks):
            stats.append(
                BsnFrameStats(
                    size=size,
                    input_counts={
                        "n0": int(n0[b]),
                        "n1": int(n1[b]),
                        "na": int(na[b]),
                        "ne": int(ne[b]),
                    },
                    splits=int(na[b]),
                    switch_ops=2 * half * m_blk,
                )
            )

        if emit:
            now = perf_counter_ns()
            stage_ns["tag"] = now - t_stage
            t_stage = now

        # ---- route the level and advance the tracking arrays.
        src, role = compile_level_gather(codes2d, stage_ns if emit else None)
        if emit:
            t_stage = perf_counter_ns()
        positions = outputs_idx
        inv_zero = np.full(n, -1, dtype=np.int64)
        inv_one = np.full(n, -1, dtype=np.int64)
        took_zero = role != 2
        took_one = role != 1
        inv_zero[src[took_zero]] = positions[took_zero]
        inv_one[src[took_one]] = positions[took_one]

        origin = origin[src]
        safe_owner = np.maximum(owner, 0)
        upper_out = ((outputs_idx // half) % 2) == 0
        new_owner = np.where(upper_out, inv_zero[safe_owner], inv_one[safe_owner])
        owner = np.where(owner >= 0, new_owner, -1)
        if np.any((owner < 0) & (np.asarray(assignment_used_mask(assignment, n)))):
            raise RoutingInvariantError(
                "fast plan lost track of a delivery while compiling"
            )
        if inject:
            _fold_plane_faults(
                fault_plan,
                m - (size.bit_length() - 1) + 1,
                owner,
                origin,
                fault_state,
            )
        if emit:
            now = perf_counter_ns()
            stage_ns["gather"] = now - t_stage
            observer.on_event(
                Event(
                    "level",
                    "fastplan",
                    frame_id,
                    now,
                    {
                        "level": m - (size.bit_length() - 1) + 1,
                        "size": size,
                        "blocks": blocks,
                        "splits": int(na.sum()),
                        "switch_ops": int(blocks * 2 * half * m_blk),
                        "stage_ns": stage_ns,
                        "duration_ns": now - t_level,
                        "engine": "fast",
                    },
                )
            )
        size = half

    delivery_src = np.where(owner >= 0, origin[np.maximum(owner, 0)], -1)
    lost_outputs: Tuple[int, ...] = ()
    flaky_exposure: Tuple = ()
    fault_hits: Tuple = ()
    if inject:
        delivery_src = _fold_delivery_faults(
            fault_plan, m, delivery_src, fault_state
        )
        lost_outputs = tuple(np.nonzero(fault_state["lost"])[0].tolist())
        flaky_exposure = tuple(fault_state["exposure"])
        fault_hits = tuple(fault_state["hits"])
    return FramePlan(
        n=n,
        delivery_src=delivery_src,
        bsn_stats=tuple(stats),
        final_switches=n // 2,
        lost_outputs=lost_outputs,
        flaky_exposure=flaky_exposure,
        fault_hits=fault_hits,
    )


def _fold_plane_faults(fault_plan, level, owner, origin, state) -> None:
    """Fold one inner fault plane into the compile-time tracking arrays.

    Positions carry a live message copy exactly when they own at least
    one output, so presence and affected sets are read straight off the
    ``owner`` array — the same sets the reference injector derives from
    the in-flight messages' destination sets.  ``owner`` / ``origin``
    are mutated in place (a stuck-crossed cell swaps its two link
    positions); losses and exposure accumulate in ``state``.
    """
    for fault in fault_plan.at_level(level):
        p, q = fault.positions
        port0 = np.nonzero(owner == p)[0]
        port1 = np.nonzero(owner == q)[0]
        if port0.size == 0 and port1.size == 0:
            continue
        kind = fault.kind
        if kind == "stuck_at":
            if fault.stuck_setting != 1:
                continue
            origin[[p, q]] = origin[[q, p]]
            owner[port0] = q
            owner[port1] = p
            affected = tuple(sorted(port0.tolist() + port1.tolist()))
            state["hits"].append((fault, affected))
        elif kind == "dead_switch":
            affected = tuple(sorted(port0.tolist() + port1.tolist()))
            state["lost"][list(affected)] = True
            state["hits"].append((fault, affected))
        else:  # flaky_link: record exposure, sample per attempt later.
            state["exposure"].append(
                (fault, tuple(port0.tolist()), tuple(port1.tolist()))
            )


def _fold_delivery_faults(fault_plan, m, delivery_src, state) -> np.ndarray:
    """Fold plane ``m`` (the output links) into a finished plan.

    Stuck-crossed delivery cells permute the delivered contents, so
    everything recorded at inner planes — lost outputs, flaky exposure —
    is remapped through the same (involutive) permutation; dead and
    flaky delivery cells then act on the final output addresses.
    """
    faults = fault_plan.at_level(m)
    if not faults:
        return delivery_src
    n = delivery_src.shape[0]
    dperm = np.arange(n, dtype=np.int64)
    for fault in faults:
        if fault.kind == "stuck_at" and fault.stuck_setting == 1:
            p, q = fault.positions
            if delivery_src[p] < 0 and delivery_src[q] < 0:
                continue
            dperm[[p, q]] = dperm[[q, p]]
            affected = tuple(
                pos for pos in (p, q) if delivery_src[pos] >= 0
            )
            state["hits"].append((fault, affected))
    delivery_src = delivery_src[dperm]
    state["lost"] = state["lost"][dperm]
    # A cell only swaps within its own pair, so dperm[o] is both where
    # output o's content went and where o's new content came from.
    state["exposure"] = [
        (
            f,
            tuple(int(dperm[o]) for o in port0),
            tuple(int(dperm[o]) for o in port1),
        )
        for f, port0, port1 in state["exposure"]
    ]
    for fault in faults:
        p, q = fault.positions
        if fault.kind == "dead_switch":
            affected = tuple(
                pos for pos in (p, q) if delivery_src[pos] >= 0
            )
            if affected:
                state["lost"][list(affected)] = True
                state["hits"].append((fault, affected))
        elif fault.kind == "flaky_link":
            port0 = (p,) if delivery_src[p] >= 0 else ()
            port1 = (q,) if delivery_src[q] >= 0 else ()
            if port0 or port1:
                state["exposure"].append((fault, port0, port1))
    return delivery_src


def owner_positions_active(assignment: MulticastAssignment, n: int) -> np.ndarray:
    """Boolean mask of inputs that inject a message (helper)."""
    mask = np.zeros(n, dtype=bool)
    for i in assignment.active_inputs:
        mask[i] = True
    return mask


def assignment_used_mask(assignment: MulticastAssignment, n: int) -> np.ndarray:
    """Boolean mask of outputs claimed by the assignment (helper)."""
    mask = np.zeros(n, dtype=bool)
    for o in assignment.used_outputs:
        mask[o] = True
    return mask


@dataclass
class PlanCache:
    """An LRU cache of compiled :class:`FramePlan` objects.

    Keyed on the canonical assignment fingerprint
    (:func:`repro.core.serialization.assignment_fingerprint`), so two
    structurally identical assignments share one compiled plan no
    matter how they were constructed.

    The cache is thread-safe: the hit/miss counters and the LRU map are
    only touched under one internal mutex, and
    ``fastplan.plan_cache`` event emission happens *outside* the
    critical section — the event payloads (sizes included) are
    snapshotted under the lock, then delivered in that deterministic
    order, so a slow observer can never stall (or deadlock with)
    another routing thread.  Compilation also runs outside the lock;
    concurrent misses on the same key may therefore compile twice here
    (first insert wins, both callers get the same retained plan) — the
    multi-worker engine's
    :class:`~repro.parallel.plan_cache.ConcurrentPlanCache` adds
    single-flight deduplication on top for exactly that case.

    Attributes:
        maxsize: maximum retained plans (least-recently-used eviction).
        hits: lookups answered from the cache.
        misses: lookups that had to compile.
        observer: optional :class:`~repro.obs.events.Observer` receiving
            a ``fastplan.plan_cache`` event per hit, miss, eviction and
            clear.
    """

    maxsize: int = 256
    hits: int = 0
    misses: int = 0
    observer: Optional[object] = None
    _plans: "OrderedDict[str, FramePlan]" = field(default_factory=OrderedDict)
    # Each entry's source assignment, retained for warm-restart
    # snapshots: fingerprints are one-way hashes, so without the
    # assignment a snapshot could name cached plans but never rebuild
    # them (see repro.resilience.snapshot).
    _assignments: Dict[str, MulticastAssignment] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @staticmethod
    def make_key(assignment: MulticastAssignment, extra_key: str = "") -> str:
        """The cache key of an assignment (+ optional compiler suffix)."""
        key = assignment_fingerprint(assignment)
        return f"{key}@{extra_key}" if extra_key else key

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    @property
    def coalesced(self) -> int:
        """Misses served by another thread's in-flight compile (always
        0 here; the concurrent subclass counts real coalescing)."""
        return 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def contains(
        self, assignment: MulticastAssignment, extra_key: str = ""
    ) -> bool:
        """True when the assignment's plan is cached (no LRU refresh,
        no counter or event side effects) — the compile-ahead
        pipeline's cheap pre-check."""
        key = self.make_key(assignment, extra_key)
        with self._lock:
            return key in self._plans

    def get(
        self,
        assignment: MulticastAssignment,
        compile_fn: Callable[[MulticastAssignment], FramePlan] = compile_frame_plan,
        extra_key: str = "",
    ) -> Tuple[FramePlan, bool]:
        """Fetch (or compile and memoise) the plan for an assignment.

        Args:
            assignment: the assignment to look up.
            compile_fn: compiler invoked on a miss.
            extra_key: optional key suffix for compilers whose output
                depends on more than the assignment (e.g. a fault-plan
                fingerprint) — keeps such plans from colliding with the
                healthy ones.

        Returns:
            ``(plan, hit)`` — ``hit`` is True when the plan came from
            the cache.
        """
        key = self.make_key(assignment, extra_key)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
            else:
                self.misses += 1
            size = len(self._plans)
        kind = "hit" if plan is not None else "miss"
        emit(self.observer, "fastplan.plan_cache", kind, key=key, size=size)
        if plan is not None:
            return plan, True
        plan = compile_fn(assignment)
        evicted = []
        with self._lock:
            raced = self._plans.get(key)
            if raced is not None:
                # Another thread compiled and inserted first; keep its
                # plan so every caller shares one object.
                plan = raced
                self._plans.move_to_end(key)
            else:
                self._plans[key] = plan
                self._assignments[key] = assignment
                while len(self._plans) > self.maxsize:
                    old, _ = self._plans.popitem(last=False)
                    self._assignments.pop(old, None)
                    evicted.append((old, len(self._plans)))
        for old, size in evicted:
            emit(self.observer, "fastplan.plan_cache", "evict", key=old,
                 size=size)
        return plan, False

    def snapshot_assignments(self) -> List[MulticastAssignment]:
        """The cached entries' source assignments, LRU order (oldest
        first) — the payload of a warm-restart snapshot
        (:class:`~repro.resilience.snapshot.FabricSnapshot`)."""
        with self._lock:
            return [
                self._assignments[key]
                for key in self._plans
                if key in self._assignments
            ]

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._assignments.clear()
            self.hits = 0
            self.misses = 0
        emit(self.observer, "fastplan.plan_cache", "clear", key="", size=0)
