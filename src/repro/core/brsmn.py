"""The binary radix sorting multicast network (paper Section 2, Fig. 1).

An ``n x n`` BRSMN realises *any* multicast assignment without blocking
by recursive binary radix splitting: an ``n x n`` binary splitting
network routes every message toward the half containing its
destinations (splitting those that need both halves), then two
``n/2 x n/2`` BRSMNs finish the job on the next address bit, down to
``2 x 2`` switches that deliver on the last bit (Fig. 2 shows the
worked 8x8 example, available as
:func:`repro.core.multicast.paper_example_assignment`).

Routing modes
-------------

* ``"oracle"`` — each level recomputes tags from the messages'
  remaining destination sets.  Simple and convenient; semantically the
  information used is identical to the paper's.
* ``"selfrouting"`` — faithful to the hardware: each message carries
  only its routing-tag sequence (:class:`~repro.core.tagtree.TagTree`
  serialised by eq. (12)); every BSN consumes the head tag and splits
  the remainder by the odd/even interleave (Fig. 10).  Any discrepancy
  between stream and destinations raises
  :class:`~repro.errors.RoutingInvariantError`.

Both modes must produce identical deliveries; the ablation bench and
tests verify this.

Engines
-------

* ``engine="reference"`` (default) — the per-switch Python simulation
  described above: inspectable, traceable, slow.
* ``engine="fast"`` — routes through a compiled
  :class:`~repro.core.fastplan.FramePlan`: the whole recursion becomes
  a handful of NumPy gathers, plans are memoised in a
  :class:`~repro.core.fastplan.PlanCache`, and
  :meth:`BRSMN.route_batch` routes a ``(batch, n)`` payload matrix in
  one shot.  Deliveries are property-tested identical to the reference
  engine; traces are a reference-engine feature (``collect_trace=True``
  with the fast engine raises ``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidAssignmentError, RoutingInvariantError
from ..obs.events import Event, emit
from ..rbn.cells import Cell
from ..rbn.permutations import check_network_size
from ..rbn.switches import SwitchSetting
from ..rbn.trace import Trace
from .bsn import BinarySplittingNetwork, BsnFrameStats
from .config import NetworkConfig, _resolve_config
from .message import Message
from .multicast import MulticastAssignment
from .tags import Tag
from .tagtree import TagTree, tag_of_destinations

__all__ = [
    "RoutingResult",
    "BatchRoutingResult",
    "BRSMN",
    "inject_messages",
    "deliver_final_switch",
]

ENGINES = ("reference", "fast")


def inject_messages(
    assignment: MulticastAssignment,
    mode: str = "oracle",
    payloads: Optional[Sequence] = None,
) -> List[Optional[Message]]:
    """Build the input message frame of a routing pass.

    Args:
        assignment: the multicast assignment to realise.
        mode: ``"oracle"`` or ``"selfrouting"``; the latter attaches
            each message's SEQ tag stream.
        payloads: optional per-input payloads (default: ``"pkt<i>"``).

    Returns:
        A list of ``n`` messages (``None`` for idle inputs).
    """
    n = assignment.n
    frame: List[Optional[Message]] = []
    for i, dests in enumerate(assignment.destinations):
        if not dests:
            frame.append(None)
            continue
        payload = payloads[i] if payloads is not None else f"pkt{i}"
        msg = Message(source=i, destinations=dests, payload=payload)
        if mode == "selfrouting":
            msg = msg.with_stream(TagTree.from_destinations(n, dests).to_sequence())
        frame.append(msg)
    return frame


def deliver_final_switch(
    messages: Sequence[Optional[Message]],
    base: int,
    mode: str = "oracle",
    *,
    trace: Optional[Trace] = None,
) -> Tuple[List[Optional[Message]], SwitchSetting]:
    """Deliver through one last-level ``2 x 2`` switch.

    The 2x2 BRSMN base case: two inputs, two outputs (absolute
    addresses ``base`` and ``base + 1``).  Realising a unicast or
    multicast here is "straightforward" (paper Section 2): route by the
    final address bit, broadcasting when a message wants both outputs.

    Returns:
        ``(outputs, setting)`` where ``outputs[k]`` is the message
        delivered to absolute output ``base + k``.

    Raises:
        BlockingError-like RoutingInvariantError: if both inputs demand
            the same output (impossible for a valid assignment — the
            upstream BSNs guarantee at most one message per half).
    """
    if len(messages) != 2:
        raise InvalidAssignmentError("final switch takes exactly 2 messages")
    outputs: List[Optional[Message]] = [None, None]
    setting = SwitchSetting.PARALLEL
    for port, msg in enumerate(messages):
        if msg is None:
            continue
        if mode == "selfrouting":
            if msg.tag_stream is None or len(msg.tag_stream) != 1:
                raise RoutingInvariantError(
                    f"final-switch message from input {msg.source} has a "
                    f"malformed residual stream {msg.tag_stream!r}"
                )
            tag = msg.tag_stream[0]
        else:
            tag = tag_of_destinations(msg.destinations, base + 1)
        wants = []
        if tag in (Tag.ZERO, Tag.ALPHA):
            wants.append(0)
        if tag in (Tag.ONE, Tag.ALPHA):
            wants.append(1)
        if not wants:
            raise RoutingInvariantError(
                f"final-switch message from input {msg.source} carries tag {tag}"
            )
        for k in wants:
            if outputs[k] is not None:
                raise RoutingInvariantError(
                    f"output {base + k} demanded by two messages "
                    f"(sources {outputs[k].source} and {msg.source})"
                )
            outputs[k] = msg
        if tag is Tag.ALPHA:
            setting = (
                SwitchSetting.UPPER_BCAST if port == 0 else SwitchSetting.LOWER_BCAST
            )
        elif (tag is Tag.ONE) != (port == 1):
            setting = SwitchSetting.CROSS
    if trace is not None:
        in_cells = tuple(
            Cell(Tag.EPS) if m is None else Cell(Tag.ZERO, data=m) for m in messages
        )
        out_cells = tuple(
            Cell(Tag.EPS) if m is None else Cell(Tag.ZERO, data=m) for m in outputs
        )
        trace.record_stage(2, base, (setting,), in_cells, out_cells)
    return outputs, setting


def _delivered(sources, outputs, payloads) -> List[Optional[Message]]:
    """The messages an array-backed result delivers to ``outputs``
    (``sources[i]`` feeds ``outputs[i]``; -1 delivers nothing)."""
    return [
        None
        if src < 0
        else Message(source=src, destinations=frozenset((o,)), payload=payloads[o])
        for o, src in zip(outputs, sources)
    ]


class _LazyOutputs:
    """``RoutingResult.outputs``: stored as given, or built on first read.

    A list passed in (or assigned later) is kept as is.  A result
    constructed with ``outputs=None`` and a ``delivery_src`` builds its
    ``Message`` list from ``delivery_src`` and ``payloads`` the first
    time ``outputs`` is read, then keeps that list.
    """

    def __get__(self, result, owner=None):
        if result is None:
            # No class-level default, so the dataclass field stays required.
            raise AttributeError("outputs")
        outputs = result.__dict__["_outputs"]
        if outputs is None and result.delivery_src is not None:
            sources = result.delivery_src.tolist()
            outputs = _delivered(sources, range(len(sources)), result.payloads)
            result.__dict__["_outputs"] = outputs
        return outputs

    def __set__(self, result, outputs) -> None:
        result.__dict__["_outputs"] = outputs


class _PlanBsnStats:
    """``bsn_stats`` of a result: stored as given, else read through the
    result's compiled ``plan`` (which builds its stats tuple only on
    first read, so serving never pays for it), else a fresh list that
    the reference engine fills in."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass field's default
        stats = result.__dict__["_bsn_stats"]
        if stats is None:
            if result.plan is not None:
                return result.plan.bsn_stats
            stats = result.__dict__["_bsn_stats"] = []
        return stats

    def __set__(self, result, stats) -> None:
        result.__dict__["_bsn_stats"] = stats


class _PerFrameTotals:
    """Per-frame counters shared by both result kinds."""

    @property
    def total_splits(self) -> int:
        """Alpha splits across all BSN frames (read off the compiled
        plan on the fast engine)."""
        if self.plan is not None:
            return self.plan.total_splits
        return sum(st.splits for st in self.bsn_stats)

    @property
    def switch_ops(self) -> int:
        """2x2 switch applications, including the final delivery level."""
        if self.plan is not None:
            return self.plan.switch_ops
        return sum(st.switch_ops for st in self.bsn_stats) + self.final_switches

    @property
    def plan_cache_hits(self) -> int:
        """Routing calls served from the plan cache (0 on the reference
        engine).

        Both engines report the counter pair — the reference engine as
        zeros rather than omitting it — so session aggregators never
        need to special-case the engine.
        """
        return 1 if self.plan_cache_hit else 0

    @property
    def plan_cache_misses(self) -> int:
        """Routing calls that compiled a plan (0 on the reference engine)."""
        return 1 if self.plan_cache_hit is False else 0


@dataclass
class RoutingResult(_PerFrameTotals):
    """Outcome of routing one multicast assignment.

    A fast-engine result is array-backed: ``delivery_src`` and
    ``payloads`` are what the compiled plan produced, and ``outputs``
    is built from them the first time it is read (then kept).  A
    caller that only needs who delivered where reads ``delivery_src``
    and never pays for ``n`` :class:`~repro.core.message.Message`
    objects; many payload frames of one assignment go through
    :meth:`BRSMN.route_batch`.

    Attributes:
        assignment: the assignment that was routed.
        outputs: ``outputs[o]`` is the message delivered to output
            ``o`` (``None`` if the output is unused).  Built on first
            access on the fast engine.
        mode: the routing mode used.
        bsn_stats: one :class:`~repro.core.bsn.BsnFrameStats` per BSN
            frame traversed, outermost first (depth-first order on the
            reference engine, level order on the fast engine — the
            multiset is identical).  On the fast engine this is the
            compiled plan's tuple, shared by every frame it routes and
            built on first read.
        final_switches: number of last-level 2x2 switches that fired.
        trace: optional full stage trace (present when requested).
        engine: which engine produced the result.
        plan_cache_hit: fast engine only — True when the routing plan
            came from the cache, False when it was compiled for this
            call, ``None`` on the reference engine.
        verification: the :class:`~repro.core.verification.VerificationReport`
            attached by :func:`~repro.core.routing.route_multicast`
            (``None`` when routing was called directly on the network).
        fault_casualties: when the network carries a
            :class:`~repro.faults.plan.FaultPlan`, one
            :class:`~repro.faults.injector.FaultHit` per fault that
            touched this pass's traffic (the engines produce the same
            multiset; traversal order differs).
        delivery_src: length-``n`` int array; ``delivery_src[o]`` is the
            input delivering to output ``o`` (-1 = nothing delivered,
            fault casualties included).  On a fault-free pass it equals
            ``assignment.source_vector()``.  Read-only on the fast
            engine, where it may be the compiled plan's own array;
            ``None`` on results of the feedback network and the
            baselines.
        payloads: fast engine only — ``payloads[o]`` is the payload
            delivered to output ``o`` (``None`` where nothing was).
        plan: fast engine only — the
            :class:`~repro.core.fastplan.FramePlan` that routed the
            frame.
    """

    assignment: MulticastAssignment
    outputs: List[Optional[Message]] = _LazyOutputs()
    mode: str
    bsn_stats: Sequence[BsnFrameStats] = _PlanBsnStats()
    final_switches: int = 0
    trace: Optional[Trace] = None
    engine: str = "reference"
    plan_cache_hit: Optional[bool] = None
    verification: Optional[object] = None
    fault_casualties: List = field(default_factory=list)
    delivery_src: Optional[np.ndarray] = field(default=None, compare=False)
    payloads: Optional[Sequence] = field(default=None, repr=False, compare=False)
    plan: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def outputs_materialised(self) -> bool:
        """True once ``outputs`` exists as a list: always for results
        built from messages, after the first read on the fast engine."""
        return self.__dict__["_outputs"] is not None

    def messages_at(self, outputs: Sequence[int]) -> List[Optional[Message]]:
        """``[self.outputs[o] for o in outputs]``; until ``outputs`` is
        read, an array-backed result builds only these messages (equal
        to the entries the full list would hold)."""
        if self.outputs_materialised or self.delivery_src is None:
            built = self.outputs
            return [built[o] for o in outputs]
        return _delivered(self.delivery_src[outputs].tolist(), outputs, self.payloads)

    @property
    def delivered(self) -> Dict[int, Message]:
        """Map of used output -> delivered message."""
        return {o: m for o, m in enumerate(self.outputs) if m is not None}


@dataclass
class BatchRoutingResult(_PerFrameTotals):
    """Outcome of routing one assignment under many payload frames.

    All frames share the assignment, so the routing plan — and with it
    every per-frame statistic — is identical across the batch; only the
    payloads differ.

    Attributes:
        assignment: the shared multicast assignment.
        frames: number of payload frames routed.
        payloads: ``(frames, n)`` array; ``payloads[f, o]`` is the
            payload delivered to output ``o`` in frame ``f``.  The
            dtype follows the input: numeric ndarrays stay numeric
            (idle outputs deliver 0), everything else is an object
            array with ``None`` on idle outputs.
        delivery_src: length-``n`` int array; ``delivery_src[o]`` is the
            input delivering to output ``o`` (-1 = idle), identical for
            every frame.  Read-only on the fast engine.
        mode: the routing mode recorded.
        engine: which engine produced the result.
        bsn_stats: per-BSN statistics of ONE frame (every frame incurs
            the same work); the compiled plan's tuple on the fast
            engine, built on first read.
        final_switches: last-level 2x2 switches fired per frame.
        plan_cache_hit: fast engine only — whether the shared plan came
            from the cache.
        fault_casualties: fault hits of the shared routing pass (every
            frame of the batch incurs the same ones).
        plan: fast engine only — the shared
            :class:`~repro.core.fastplan.FramePlan`.

    ``total_splits`` and ``switch_ops`` are per frame (identical across
    the batch); ``plan_cache_hits`` / ``plan_cache_misses`` count the
    batch as one lookup.
    """

    assignment: MulticastAssignment
    frames: int
    payloads: "np.ndarray"
    delivery_src: "np.ndarray"
    mode: str
    engine: str = "reference"
    bsn_stats: Sequence[BsnFrameStats] = _PlanBsnStats()
    final_switches: int = 0
    plan_cache_hit: Optional[bool] = None
    fault_casualties: List = field(default_factory=list)
    plan: Optional[object] = field(default=None, repr=False, compare=False)

    def frame_outputs(self, f: int) -> List:
        """Per-output delivered payloads of frame ``f`` as a list."""
        return list(self.payloads[f])


class BRSMN:
    """An ``n x n`` binary radix sorting multicast network.

    The object is stateless across frames and cheap to construct; the
    recursive BSN structure is materialised lazily per size (all
    same-size sub-BSNs share one :class:`BinarySplittingNetwork`
    instance, which is pure logic).

    Single-threaded: every routing call runs on the calling thread, and
    a network is driven by one thread at a time (its frame counter and
    fault injector are unguarded).  To route from several threads,
    give each thread its own network; they may share one plan cache,
    whose LRU map and counters sit behind a lock.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig` (must be
            unrolled), or a bare network size (power of two, >= 2).
        plan_cache: fast engine only — a
            :class:`~repro.core.fastplan.PlanCache` (or
            :class:`~repro.parallel.plan_cache.ConcurrentPlanCache`) to
            share across networks (default: a private cache sized by
            the config's ``plan_cache_size``, wired to the config's
            observer).
        observer: optional :class:`~repro.obs.events.Observer`
            (overrides the config's).
    """

    def __init__(self, n, plan_cache=None, observer=None):
        cfg = _resolve_config(n, observer=observer)
        if cfg.implementation != "unrolled":
            raise ValueError(
                "BRSMN is the unrolled implementation; use build_network "
                "for implementation='feedback'"
            )
        self.m = check_network_size(cfg.n)
        self.n = cfg.n
        self.engine = cfg.engine
        self.observer = cfg.observer
        self._frames_emitted = 0
        self._bsns: Dict[int, BinarySplittingNetwork] = {}
        # An empty plan is normalised away so the healthy path is
        # bit-identical (and pays nothing) whether the caller passed
        # fault_plan=None or FaultPlan.empty(n).
        if cfg.fault_plan is not None and not cfg.fault_plan.is_empty:
            from ..faults.injector import FaultInjector  # deferred: cycle

            self.fault_plan = cfg.fault_plan
            self._injector = FaultInjector(cfg.fault_plan)
        else:
            self.fault_plan = None
            self._injector = None
        if cfg.engine == "fast" or plan_cache is not None:
            from .fastplan import PlanCache  # deferred: import cycle

            self.plan_cache = (
                plan_cache
                if plan_cache is not None
                else PlanCache(
                    maxsize=cfg.plan_cache_size, observer=cfg.observer
                )
            )
        else:
            self.plan_cache = None

    def _bsn(self, size: int) -> BinarySplittingNetwork:
        if size not in self._bsns:
            self._bsns[size] = BinarySplittingNetwork(size)
        return self._bsns[size]

    # -- structural properties (Section 7.4) ---------------------------
    @property
    def switch_count(self) -> int:
        """Total 2x2 switches of the unrolled network.

        Level ``j`` (sizes ``n_j = n / 2^{j-1}``) contributes
        ``2^{j-1}`` BSNs of ``n_j log2(n_j)`` switches each, and the
        last level contributes ``n/2`` delivery switches; the total is
        ``Theta(n log^2 n)``.
        """
        total = 0
        size = self.n
        blocks = 1
        while size > 2:
            total += blocks * self._bsn(size).switch_count
            blocks *= 2
            size //= 2
        total += blocks  # n/2 final 2x2 switches
        return total

    @property
    def depth(self) -> int:
        """Switch stages on an input-output path: ``Theta(log^2 n)``.

        ``sum_j 2 log2(n_j)`` over BSN levels plus the final switch.
        """
        total = 0
        size = self.n
        while size > 2:
            total += 2 * (size.bit_length() - 1)
            size //= 2
        return total + 1

    # -- routing --------------------------------------------------------
    def route(
        self,
        assignment: MulticastAssignment,
        mode: str = "oracle",
        payloads: Optional[Sequence] = None,
        *,
        collect_trace: bool = False,
    ) -> RoutingResult:
        """Route one multicast assignment; return the delivery result.

        Args:
            assignment: the multicast assignment (must match ``n``).
            mode: ``"oracle"`` or ``"selfrouting"``.
            payloads: optional per-input payloads.
            collect_trace: record every merging stage (costly; used by
                the renderer and the figure benches).
        """
        if assignment.n != self.n:
            raise InvalidAssignmentError(
                f"assignment size {assignment.n} != network size {self.n}"
            )
        if mode not in ("oracle", "selfrouting"):
            raise ValueError(f"unknown routing mode {mode!r}")
        obs = self.observer
        emit = obs is not None and obs.enabled
        if emit:
            t0, fid = self._emit_frame_start(obs, assignment, mode, 1)
        if self.engine == "fast":
            if collect_trace:
                raise ValueError(
                    "collect_trace requires engine='reference' (the fast "
                    "engine routes by compiled gathers, not switch stages)"
                )
            result = self._route_fast(
                assignment,
                mode,
                payloads,
                observer=obs if emit else None,
                frame_id=fid if emit else -1,
            )
        else:
            frame = inject_messages(assignment, mode, payloads)
            trace = (
                Trace(label=f"BRSMN(n={self.n}, mode={mode})")
                if collect_trace
                else None
            )
            result = RoutingResult(
                assignment=assignment, outputs=[], mode=mode, trace=trace
            )
            prof: Optional[Dict[int, List[int]]] = {} if emit else None
            result.outputs = self._route(
                frame, 0, self.n, mode, result, trace, prof
            )
            if self._injector is not None:
                result.outputs = self._injector.scrub(result.outputs)
            result.delivery_src = np.array(
                [-1 if m is None else m.source for m in result.outputs],
                dtype=np.int64,
            )
            if emit:
                self._emit_level_spans(obs, fid, prof)
        if emit:
            if result.fault_casualties:
                self._emit_fault_events(obs, fid, result.fault_casualties)
            self._emit_frame_done(obs, fid, t0, result, mode, 1)
        return result

    # -- observability emission (pay-for-what-you-use) ------------------
    def _emit_frame_start(self, obs, assignment, mode, frames):
        """Emit ``frame_start``; returns ``(t0_ns, frame_id)``."""
        t0 = perf_counter_ns()
        fid = self._frames_emitted
        self._frames_emitted += 1
        obs.on_event(
            Event(
                "frame_start",
                "brsmn",
                fid,
                t0,
                {
                    "n": self.n,
                    "engine": self.engine,
                    "mode": mode,
                    "frames": frames,
                    "active_inputs": len(assignment.active_inputs),
                    "fanout": assignment.total_fanout,
                },
            )
        )
        return t0, fid

    def _emit_level_spans(self, obs, fid, prof):
        """Emit one ``level`` span per recursion level (reference engine)."""
        for size in sorted(prof, reverse=True):
            ns, splits, ops, blocks = prof[size]
            stage = "deliver" if size == 2 else "bsn"
            emit(
                obs,
                "brsmn",
                "level",
                fid,
                level=self.m - (size.bit_length() - 1) + 1,
                size=size,
                blocks=blocks,
                splits=splits,
                switch_ops=ops,
                stage_ns={stage: ns},
                duration_ns=ns,
                engine="reference",
            )

    def _emit_fault_events(self, obs, fid, hits):
        """Emit one ``injected`` event per fault hit."""
        attempt = self._injector.attempt if self._injector is not None else 0
        for hit in hits:
            emit(
                obs,
                "brsmn",
                "injected",
                fid,
                fault=hit.fault.kind.value,
                level=hit.fault.level,
                index=hit.fault.index,
                attempt=attempt,
                terminals=tuple(hit.outputs),
            )

    def _emit_frame_done(self, obs, fid, t0, result, mode, frames):
        """Emit ``frame_done`` for a finished (batch) routing call."""
        t1 = perf_counter_ns()
        deliveries = int(np.count_nonzero(result.delivery_src >= 0))
        obs.on_event(
            Event(
                "frame_done",
                "brsmn",
                fid,
                t1,
                {
                    "engine": self.engine,
                    "mode": mode,
                    "frames": frames,
                    "deliveries": deliveries,
                    "splits": result.total_splits,
                    "switch_ops": result.switch_ops,
                    "duration_ns": t1 - t0,
                    "cache_hit": result.plan_cache_hit,
                },
            )
        )

    @property
    def _plan_key(self) -> str:
        """Plan-cache key suffix: the fault plan's fingerprint, so
        faulted plans never collide with healthy ones."""
        return self.fault_plan.fingerprint() if self.fault_plan is not None else ""

    def _plan(self, assignment: MulticastAssignment, observer=None, frame_id=-1):
        """Fetch (or compile) the routing plan; returns ``(plan, hit)``.

        When an enabled observer is attached, a cache miss compiles
        with per-level profiling spans tagged with ``frame_id``; when a
        fault plan is attached, its consequences are compiled into the
        plan and the cache key carries the plan fingerprint so faulted
        plans never collide with healthy ones.
        """
        if observer is None and self.fault_plan is None:
            return self.plan_cache.get(assignment)
        from .fastplan import compile_frame_plan  # deferred, as above

        fault_plan = self.fault_plan
        return self.plan_cache.get(
            assignment,
            compile_fn=lambda a: compile_frame_plan(
                a, observer=observer, frame_id=frame_id, fault_plan=fault_plan
            ),
            extra_key=self._plan_key,
        )

    def _route_fast(
        self,
        assignment: MulticastAssignment,
        mode: str,
        payloads: Optional[Sequence],
        observer=None,
        frame_id: int = -1,
    ) -> RoutingResult:
        plan, hit = self._plan(assignment, observer, frame_id)
        if payloads is None:
            payloads = self._default_payloads
        attempt = self._injector.attempt if self._injector is not None else 0
        return RoutingResult(
            assignment=assignment,
            outputs=None,  # built from delivery_src on first read
            mode=mode,
            final_switches=plan.final_switches,
            engine="fast",
            plan_cache_hit=hit,
            fault_casualties=self._plan_hits(plan, attempt),
            delivery_src=self._delivery_src(plan, attempt),
            payloads=plan.apply(payloads, attempt),
            plan=plan,
        )

    @cached_property
    def _default_payloads(self) -> Tuple[str, ...]:
        """``"pkt<i>"`` per input, built once per network."""
        return tuple(f"pkt{i}" for i in range(self.n))

    @staticmethod
    def _delivery_src(plan, attempt: int) -> np.ndarray:
        """The plan's read-only delivery vector with this attempt's
        fault casualties set to -1 (the plan's own array when none)."""
        src = plan.delivery_src
        if plan.has_faults:
            casualties = plan.casualties(attempt)
            if casualties:
                src = src.copy()
                src[sorted(casualties)] = -1
                src.flags.writeable = False
        return src

    def _plan_hits(self, plan, attempt: int) -> List:
        """Normalise a compiled plan's fault hits to ``FaultHit`` objects."""
        if not plan.has_faults:
            return []
        from ..faults.injector import FaultHit  # deferred: cycle

        return [
            FaultHit(fault=fault, outputs=outputs)
            for fault, outputs in list(plan.fault_hits) + plan.flaky_hits(attempt)
        ]

    def warm_plans(self, assignments: Sequence[MulticastAssignment]) -> int:
        """Compile many assignments into the plan cache in one call.

        The plans are compiled together by
        :func:`~repro.core.fastplan.compile_frame_plans` under the
        network's fault plan, then inserted in order through the
        cache's ordinary ``get`` under the keys routing uses, so LRU
        order, hit/miss counters and ``fastplan.plan_cache`` events are
        those of looking the assignments up one by one.  Returns the
        number of assignments (0 when the network has no plan cache).
        """
        if self.plan_cache is None:
            return 0
        from .fastplan import compile_frame_plans  # deferred, as above

        plans = compile_frame_plans(assignments, fault_plan=self.fault_plan)
        key = self._plan_key
        for assignment, plan in zip(assignments, plans):
            self.plan_cache.get(
                assignment, compile_fn=lambda _, plan=plan: plan, extra_key=key
            )
        return len(plans)

    def close(self) -> None:
        """A no-op: a network holds no threads, files or sockets.

        Kept so every session object (network, fabric, simulator,
        cluster) can be closed the same way; idempotent.
        """

    def route_batch(
        self,
        assignment: MulticastAssignment,
        payload_matrix,
        mode: str = "oracle",
    ) -> BatchRoutingResult:
        """Route many payload frames sharing one assignment.

        On the fast engine the whole batch is one fancy-indexing gather
        through the compiled plan, on the calling thread; on the
        reference engine the frames are routed sequentially (the
        baseline the batch path is benchmarked against).

        Args:
            assignment: the shared multicast assignment.
            payload_matrix: ``(batch, n)`` array-like of per-input
                payloads, one row per frame.  A *numeric* ndarray keeps
                its dtype end to end (idle outputs deliver 0); any
                other input is routed as an object matrix with ``None``
                on idle outputs.

        Returns:
            A :class:`BatchRoutingResult`.
        """
        if assignment.n != self.n:
            raise InvalidAssignmentError(
                f"assignment size {assignment.n} != network size {self.n}"
            )
        if (
            isinstance(payload_matrix, np.ndarray)
            and payload_matrix.dtype != object
        ):
            mat = payload_matrix
        else:
            mat = np.asarray(payload_matrix, dtype=object)
        if mat.ndim != 2 or mat.shape[1] != self.n:
            raise InvalidAssignmentError(
                f"expected a (batch, {self.n}) payload matrix, got shape {mat.shape}"
            )
        if self.engine == "fast":
            obs = self.observer
            emit = obs is not None and obs.enabled
            if emit:
                t0, fid = self._emit_frame_start(
                    obs, assignment, mode, mat.shape[0]
                )
            plan, hit = self._plan(
                assignment,
                obs if emit else None,
                fid if emit else -1,
            )
            attempt = self._injector.attempt if self._injector is not None else 0
            delivery_src = self._delivery_src(plan, attempt)
            result = BatchRoutingResult(
                assignment=assignment,
                frames=mat.shape[0],
                payloads=plan.apply_batch(mat, attempt),
                delivery_src=delivery_src,
                mode=mode,
                engine="fast",
                final_switches=plan.final_switches,
                plan_cache_hit=hit,
                fault_casualties=self._plan_hits(plan, attempt),
                plan=plan,
            )
            if emit:
                if result.fault_casualties:
                    self._emit_fault_events(obs, fid, result.fault_casualties)
                self._emit_frame_done(obs, fid, t0, result, mode, mat.shape[0])
            return result
        delivery_src = np.full(self.n, -1, dtype=np.int64)
        idle_fill = None if mat.dtype == object else mat.dtype.type(0)
        out = np.full(mat.shape, idle_fill, dtype=mat.dtype)
        first: Optional[RoutingResult] = None
        for f in range(mat.shape[0]):
            result = self.route(assignment, mode=mode, payloads=list(mat[f]))
            if first is None:
                first = result
                for o, msg in enumerate(result.outputs):
                    if msg is not None:
                        delivery_src[o] = msg.source
            for o, msg in enumerate(result.outputs):
                if msg is not None:
                    out[f, o] = msg.payload
        return BatchRoutingResult(
            assignment=assignment,
            frames=mat.shape[0],
            payloads=out,
            delivery_src=delivery_src,
            mode=mode,
            engine="reference",
            bsn_stats=list(first.bsn_stats) if first is not None else [],
            final_switches=first.final_switches if first is not None else 0,
            fault_casualties=(
                list(first.fault_casualties) if first is not None else []
            ),
        )

    def _route(
        self,
        messages: List[Optional[Message]],
        base: int,
        size: int,
        mode: str,
        result: RoutingResult,
        trace: Optional[Trace],
        prof: Optional[Dict[int, List[int]]] = None,
    ) -> List[Optional[Message]]:
        injector = self._injector
        if size == 2:
            if prof is not None:
                t = perf_counter_ns()
            outputs, _setting = deliver_final_switch(
                messages, base, mode, trace=trace
            )
            result.final_switches += 1
            if prof is not None:
                rec = prof.setdefault(2, [0, 0, 0, 0])
                rec[0] += perf_counter_ns() - t
                rec[2] += 1  # one switch op per delivery switch
                rec[3] += 1
            if injector is not None and injector.has_level(self.m):
                result.fault_casualties.extend(
                    injector.apply_plane(self.m, base, outputs, delivery=True)
                )
            return outputs
        if prof is not None:
            t = perf_counter_ns()
        upper, lower, stats = self._bsn(size).route_messages(
            messages, base, mode, trace=trace
        )
        if prof is not None:
            rec = prof.setdefault(size, [0, 0, 0, 0])
            rec[0] += perf_counter_ns() - t
            rec[1] += stats.splits
            rec[2] += stats.switch_ops
            rec[3] += 1
        result.bsn_stats.append(stats)
        half = size // 2
        level = self.m - (size.bit_length() - 1) + 1
        if injector is not None and injector.has_level(level):
            combined = upper + lower
            result.fault_casualties.extend(
                injector.apply_plane(level, base, combined)
            )
            upper, lower = combined[:half], combined[half:]
        out_up = self._route(upper, base, half, mode, result, trace, prof)
        out_lo = self._route(lower, base + half, half, mode, result, trace, prof)
        return out_up + out_lo
