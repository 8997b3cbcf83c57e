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
* :func:`compile_frame_plans` chains the levels for a whole batch of
  assignments at once: B networks side by side are just B times the
  blocks of each level's kernel call.  It tracks, per output address,
  the current *position* of the message copy that will deliver there
  (``owner``) and, per position, the original input feeding it
  (``origin``) — both plain integer arrays updated by gathers — and
  needs no per-message Python at all.  The result is one
  :class:`FramePlan` per assignment, whose ``delivery_src[o]`` is the
  input index delivered to output ``o``.  :func:`compile_frame_plan`
  is its one-assignment case, and the only other entry point;
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
from functools import cached_property
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidAssignmentError, RoutingInvariantError
from ..obs.events import Event, emit
from ..rbn.fast import (
    block_counts,
    build_shape_tables,
    divide_epsilons,
    shape_tables,
    sort_gather,
)
from ..rbn.fast_scatter import (
    CODE_ALPHA,
    CODE_EPS,
    CODE_ONE,
    CODE_ZERO,
    scatter_gather,
)
from ..rbn.permutations import check_network_size
from .bsn import BsnFrameStats
from .multicast import MulticastAssignment
from .serialization import assignment_fingerprint

__all__ = [
    "compile_level_gather",
    "compile_frame_plan",
    "compile_frame_plans",
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
    return _level_gather(codes, block_counts(codes, 4), stage_ns)


def _level_gather(
    codes, counts, stage_ns, tables=None
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`compile_level_gather` given the level's count matrix
    (``[n0, n1, na, ne]`` per block), which the eq. (2) and eq. (3)
    checks share, and optionally the shape's node tables."""
    blocks, size = codes.shape
    half = size // 2
    n0, n1, na = counts[:, CODE_ZERO], counts[:, CODE_ONE], counts[:, CODE_ALPHA]
    if np.any(n0 + na > half) or np.any(n1 + na > half):
        bad = int(np.argmax((n0 + na > half) | (n1 + na > half)))
        raise RoutingInvariantError(
            "BSN input constraint (eq. 2) violated: "
            f"n0={int(n0[bad])}, n1={int(n1[bad])}, na={int(na[bad])}, "
            f"n/2={half} (block {bad})"
        )

    # Scatter pass (Theorem 2): eliminate every alpha, s = 0 per block.
    t = perf_counter_ns() if stage_ns is not None else 0
    scat = scatter_gather(
        codes, np.zeros(blocks, dtype=np.int64), counts, tables
    )
    scat_codes = scat.output_codes(codes)
    if stage_ns is not None:
        now = perf_counter_ns()
        stage_ns["scatter"] = stage_ns.get("scatter", 0) + (now - t)
        t = now

    # Quasisort pass (Section 5.2) on the scatter outputs: re-encode for
    # the quasisort kernels ({0, 1, EPS} -> {0, 1, 2}), divide epsilons,
    # then ascending bit sort to C(n/2, n/2) over the one-population.
    quasi = np.minimum(scat_codes, 2).reshape(blocks, size)
    divided = divide_epsilons(quasi, block_counts(quasi, 3))
    perm = sort_gather(
        (divided == 1) | (divided == 4), np.full(blocks, half), tables
    )
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
        bsn_counts: per recursion level (outermost first), the
            ``(blocks, 4)`` matrix of each BSN's input populations
            ``[n0, n1, na, ne]`` (blocks top-to-bottom).
        final_switches: last-level 2x2 switches fired (= n/2).
        lost_outputs: outputs whose payload a dead cell destroys on
            every attempt.
        flaky_exposure: ``(fault, port0_outputs, port1_outputs)``
            triples — outputs riding each flaky cell's two links.
        fault_hits: ``(fault, outputs)`` pairs of the structural faults
            (stuck / dead) that touched this assignment's traffic.
        total_splits: alpha splits across all BSN levels (summed once,
            at construction).
        switch_ops: 2x2 switch applications per frame, final delivery
            level included (summed once, at construction).

    ``delivery_src`` is made read-only at construction: routing results
    share it instead of copying it per frame.  :attr:`bsn_stats` is
    built from ``bsn_counts`` on first read.
    """

    n: int
    delivery_src: np.ndarray
    bsn_counts: Tuple[np.ndarray, ...] = ()
    final_switches: int = 0
    lost_outputs: Tuple[int, ...] = ()
    flaky_exposure: Tuple[Tuple[object, Tuple[int, ...], Tuple[int, ...]], ...] = ()
    fault_hits: Tuple[Tuple[object, Tuple[int, ...]], ...] = ()
    total_splits: int = field(init=False, repr=False, compare=False)
    switch_ops: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.delivery_src.flags.writeable = False
        splits = (
            int(np.concatenate(self.bsn_counts)[:, CODE_ALPHA].sum())
            if self.bsn_counts
            else 0
        )
        # A BSN of size s runs two RBNs of (s/2) log2 s switches each.
        ops = sum(self.n * ((self.n // len(c)).bit_length() - 1)
                  for c in self.bsn_counts)
        object.__setattr__(self, "total_splits", splits)
        object.__setattr__(self, "switch_ops", ops + self.final_switches)

    @cached_property
    def bsn_stats(self) -> Tuple[BsnFrameStats, ...]:
        """Per-BSN frame statistics in level order (outermost level
        first, blocks top-to-bottom within a level); the same multiset
        as the reference engine's depth-first list.  Built on first
        read, then shared."""
        return tuple(
            BsnFrameStats(
                size=size,
                input_counts={"n0": n0, "n1": n1, "na": na, "ne": ne},
                splits=na,
                switch_ops=size * (size.bit_length() - 1),
            )
            for counts in self.bsn_counts
            for size in (self.n // len(counts),)
            for n0, n1, na, ne in counts.tolist()
        )

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
          as :func:`numpy.take`; idle outputs and casualties deliver
          the dtype's zero (there is no ``None`` in a numeric array).
          The result keeps the input dtype.

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


# Scatter code of a position from its "owns upper / owns lower" bits.
_CODE_OF_OWNS = np.array([CODE_EPS, CODE_ONE, CODE_ZERO, CODE_ALPHA])


def compile_frame_plan(
    assignment: MulticastAssignment,
    observer=None,
    frame_id: int = -1,
    fault_plan=None,
) -> FramePlan:
    """Compile the full recursive BRSMN routing of one assignment.

    The one-assignment case of :func:`compile_frame_plans`; see there
    for the arguments.

    Raises:
        RoutingInvariantError: if any level's input populations violate
            the paper's invariants (impossible for a valid assignment).
    """
    return compile_frame_plans(
        [assignment], fault_plan=fault_plan, observer=observer, frame_id=frame_id
    )[0]


def compile_frame_plans(
    assignments: Sequence[MulticastAssignment],
    fault_plan=None,
    observer=None,
    frame_id: int = -1,
) -> List[FramePlan]:
    """Compile the full recursive BRSMN routing of many assignments.

    Runs every recursion level through the level kernels once for the
    whole batch, following each message copy by position (``owner``)
    and provenance (``origin``) arrays, exactly as the unrolled network
    would move it.  ``B`` networks of size ``n`` lie side by side in
    one flat ``B * n`` layout: at level ``k`` they are ``B * 2^k``
    independent BSNs, i.e. just more blocks of the same kernel call.
    Positions and outputs are batch-global (network ``b`` owns
    ``[b * n, (b + 1) * n)``), while ``origin`` holds input indices
    within a network.  Each plan equals the one its assignment
    compiles to alone.

    Args:
        assignments: the multicast assignments to compile, all of one
            network size.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
            shared by the batch — when non-empty, each fault plane is
            folded into every plan right after its recursion level:
            stuck-crossed cells permute the tracking arrays (so
            ``delivery_src`` lands where the broken fabric actually
            delivers), dead cells contribute ``lost_outputs``, flaky
            cells contribute ``flaky_exposure``.  An empty plan
            compiles the identical healthy plans.
        observer: optional enabled :class:`~repro.obs.events.Observer` —
            when given, each recursion level emits one ``("fastplan",
            "level")`` :class:`~repro.obs.events.Event` for the whole
            batch, with per-stage ``perf_counter_ns`` spans (``tag`` /
            ``scatter`` / ``quasisort`` / ``gather``) plus the level's
            block, split and switch-operation counts summed over it.
        frame_id: frame id to tag emitted spans with.

    Returns:
        One :class:`FramePlan` per assignment, in order.

    Raises:
        InvalidAssignmentError: if the assignments differ in size.
        RoutingInvariantError: if any level's input populations violate
            the paper's invariants (impossible for a valid assignment).
    """
    if not assignments:
        return []
    n = assignments[0].n
    if any(a.n != n for a in assignments):
        raise InvalidAssignmentError(
            "compile_frame_plans needs assignments of one network size, "
            f"got n={sorted({a.n for a in assignments})}"
        )
    m = check_network_size(n)
    batch = len(assignments)
    total = batch * n
    emit = observer is not None and observer.enabled
    inject = fault_plan is not None and not fault_plan.is_empty
    fault_states = [
        {"lost": np.zeros(n, dtype=bool), "exposure": [], "hits": []}
        for _ in range(batch)
    ] if inject else None

    # owner[o]: current position of the copy that will deliver output o;
    # every copy starts at its source input, so owner starts as the
    # source vectors, shifted into each network's slice.
    source = np.concatenate([a.source_vector() for a in assignments])
    used = source >= 0
    offset = np.repeat(np.arange(0, total, n), n)
    owner = np.where(used, source + offset, -1)
    # origin[p]: original input of the message copy at position p.
    outputs_idx = np.arange(total, dtype=np.int64)
    injects = np.zeros(total, dtype=bool)
    injects[owner[used]] = True
    origin = np.where(injects, outputs_idx - offset, -1)

    counts: List[np.ndarray] = []
    size = n
    while size > 2:
        half = size // 2
        blocks = total // size
        level = m - (size.bit_length() - 1) + 1
        if emit:
            stage_ns: Dict[str, int] = {}
            t_level = t_stage = perf_counter_ns()

        # ---- tag each position from the outputs it still owns: bit 1
        # if it owns an upper-half output, bit 0 a lower-half one.
        active = owner >= 0
        lower_out = (outputs_idx // half) & 1
        owns = np.zeros(2 * total, dtype=np.int64)
        owns[owner[active] + total * lower_out[active]] = 1
        codes2d = _CODE_OF_OWNS[2 * owns[:total] + owns[total:]].reshape(
            blocks, size
        )
        # Per-BSN input populations: assignment-determined, so part of
        # the compiled plan (stats are built from them on demand).
        level_counts = block_counts(codes2d, 4)
        counts.append(level_counts.reshape(batch, blocks // batch, 4))

        if emit:
            now = perf_counter_ns()
            stage_ns["tag"] = now - t_stage
            t_stage = now

        # ---- route the level and advance the tracking arrays.  One
        # network's level shapes are memoised; a batch's are not, so
        # the memo does not grow with the batch size.
        tables = (shape_tables if batch == 1 else build_shape_tables)(
            blocks, size
        )
        src, role = _level_gather(
            codes2d, level_counts, stage_ns if emit else None, tables
        )
        if emit:
            t_stage = perf_counter_ns()
        # inv[q] / inv[total + q]: where the tag-0 / tag-1 copy of the
        # cell at position q went (a unicast cell fills both slots).
        inv = np.full(2 * total, -1, dtype=np.int64)
        inv[src + total * (role == 2)] = outputs_idx
        inv[src + total * (role != 1)] = outputs_idx
        origin = origin[src]
        owner = np.where(
            active, inv[np.maximum(owner, 0) + total * lower_out], -1
        )
        if np.any((owner < 0) & used):
            raise RoutingInvariantError(
                "fast plan lost track of a delivery while compiling"
            )
        if inject:
            _fold_plane_faults(
                fault_plan.at_level(level), owner, origin, fault_states
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
                        "level": level,
                        "size": size,
                        "blocks": blocks,
                        "splits": int(level_counts[:, CODE_ALPHA].sum()),
                        "switch_ops": total * (size.bit_length() - 1),
                        "stage_ns": stage_ns,
                        "duration_ns": now - t_level,
                        "engine": "fast",
                    },
                )
            )
        size = half

    delivery = np.where(owner >= 0, origin[np.maximum(owner, 0)], -1)
    faults = fault_plan.at_level(m) if inject else ()
    plans = []
    for b in range(batch):
        delivery_src = delivery[b * n:(b + 1) * n]
        lost_outputs: Tuple[int, ...] = ()
        flaky_exposure: Tuple = ()
        fault_hits: Tuple = ()
        if inject:
            state = fault_states[b]
            delivery_src = _fold_delivery_faults(faults, delivery_src, state)
            lost_outputs = tuple(np.nonzero(state["lost"])[0].tolist())
            flaky_exposure = tuple(state["exposure"])
            fault_hits = tuple(state["hits"])
        plans.append(
            FramePlan(
                n=n,
                delivery_src=delivery_src,
                bsn_counts=tuple(c[b] for c in counts),
                final_switches=n // 2,
                lost_outputs=lost_outputs,
                flaky_exposure=flaky_exposure,
                fault_hits=fault_hits,
            )
        )
    return plans


def _fold_plane_faults(faults, owner, origin, states) -> None:
    """Fold one inner fault plane into the batch's tracking arrays.

    Positions carry a live message copy exactly when they own at least
    one output, so presence and affected sets are read straight off the
    ``owner`` array — the same sets the reference injector derives from
    the in-flight messages' destination sets.  Network ``b`` of the
    batch owns outputs and positions ``[b * n, (b + 1) * n)``; one
    comparison per fault finds its ports in every network, and each
    network the fault touches records its hits, losses and exposure in
    its own ``states[b]``.  ``owner`` / ``origin`` are mutated in place
    (a stuck-crossed cell swaps its two link positions).
    """
    if not faults:
        return
    batch = len(states)
    n = owner.size // batch
    # Position within its own network of each output's copy (negative
    # when idle).  Faults of one plane sit on distinct cells, so a
    # stuck swap never changes what a later fault of the plane reads.
    local = owner.reshape(batch, n) - np.arange(0, owner.size, n)[:, None]
    for fault in faults:
        kind = fault.kind
        if kind == "stuck_at" and fault.stuck_setting != 1:
            continue
        p, q = fault.positions
        rows0, port0 = np.nonzero(local == p)
        rows1, port1 = np.nonzero(local == q)
        if kind == "stuck_at":
            owner[rows0 * n + port0] = rows0 * n + q
            owner[rows1 * n + port1] = rows1 * n + p
        ports: Dict[int, Tuple[List[int], List[int]]] = {}
        for b, o in zip(rows0.tolist(), port0.tolist()):
            ports.setdefault(b, ([], []))[0].append(o)
        for b, o in zip(rows1.tolist(), port1.tolist()):
            ports.setdefault(b, ([], []))[1].append(o)
        for b, (mine0, mine1) in ports.items():
            state = states[b]
            if kind == "flaky_link":  # sampled per attempt later
                state["exposure"].append((fault, tuple(mine0), tuple(mine1)))
                continue
            affected = tuple(sorted(mine0 + mine1))
            if kind == "stuck_at":
                at_p, at_q = b * n + p, b * n + q
                origin[at_p], origin[at_q] = origin[at_q], origin[at_p]
            else:
                state["lost"][list(affected)] = True
            state["hits"].append((fault, affected))


def _fold_delivery_faults(faults, delivery_src, state) -> np.ndarray:
    """Fold the delivery plane's ``faults`` (the output links) into one
    finished plan.

    Stuck-crossed delivery cells permute the delivered contents, so
    everything recorded at inner planes — lost outputs, flaky exposure —
    is remapped through the same (involutive) permutation; dead and
    flaky delivery cells then act on the final output addresses.
    """
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


@dataclass
class PlanCache:
    """An LRU cache of compiled :class:`FramePlan` objects.

    Keyed on the canonical assignment fingerprint
    (:func:`repro.core.serialization.assignment_fingerprint`), so two
    structurally identical assignments share one compiled plan no
    matter how they were constructed.

    The cache is thread-safe, so networks driven from different
    threads may share one: the hit/miss counters and the LRU map are
    only touched under one internal mutex, and
    ``fastplan.plan_cache`` event emission happens *outside* the
    critical section — the event payloads (sizes included) are
    snapshotted under the lock, then delivered in that deterministic
    order, so a slow observer can never stall (or deadlock with)
    another routing thread.  Compilation also runs outside the lock;
    concurrent misses on the same key may therefore compile twice
    (first insert wins, both callers get the same retained plan).

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
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

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
