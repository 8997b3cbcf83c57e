"""Queueing on top of the frame switch: arrivals, backlog, waiting times.

The admission layer (:mod:`repro.core.admission`) packs a *static*
request batch into frames.  A running switch instead sees a *stream*:
calls arrive over time, the fabric serves one multicast frame per slot,
and unserved requests queue.  This module provides that operational
layer:

* :func:`poisson_arrivals` — a seeded arrival process: per slot a
  Poisson-distributed number of requests with configurable fanout
  distribution;
* :class:`QueueingSimulator` — per slot: enqueue the new arrivals,
  greedily pack one conflict-free frame from the backlog
  (largest-first or FIFO), route it through a real network (verified),
  and record each request's waiting time;
* :class:`QueueingReport` — waiting-time and backlog statistics.

The point: the nonblocking guarantee is per *frame*; end-to-end call
latency is a queueing phenomenon governed by port contention, which
this simulation measures instead of hand-waving.

When the config carries resilience settings, the simulator also runs
the overload layer: an :class:`~repro.resilience.gate.AdmissionGate`
admits or sheds each request *at arrival* (the gate ticks once per
slot; shed requests are counted in :attr:`QueueingReport.shed` and
never enter the backlog), and ``deadline_ms`` bounds each slot's
healing retries through a
:class:`~repro.resilience.budget.DeadlineBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..control.plane import control_for
from ..errors import InvalidAssignmentError
from ..faults import healing
from ..obs.events import emit
from ..rbn.permutations import check_network_size
from ..resilience.budget import DeadlineBudget
from ..resilience.gate import AdmissionGate
from .admission import Request, conflicts
from .config import _resolve_config
from .multicast import MulticastAssignment
from .routing import build_network
from .verification import verify_result

__all__ = [
    "Arrival",
    "poisson_arrivals",
    "QueueingReport",
    "QueueingSimulator",
]


@dataclass(frozen=True)
class Arrival:
    """One request arriving at a given frame slot.

    Attributes:
        slot: arrival time in frame slots (0-based).
        request: the multicast call.
    """

    slot: int
    request: Request


def poisson_arrivals(
    n: int,
    rate: float,
    slots: int,
    seed=0,
    mean_fanout: float = 2.0,
    high_priority_fraction: float = 0.0,
) -> List[Arrival]:
    """A seeded Poisson arrival process of multicast requests.

    Args:
        n: switch size.
        rate: mean arrivals per slot.
        slots: number of slots to generate.
        seed: RNG seed or Generator.
        mean_fanout: mean destination-set size (geometric, >= 1).
        high_priority_fraction: probability that a request carries
            ``priority=1`` (survives soft admission shedding).  The
            default 0.0 draws nothing from the RNG, so existing seeded
            streams are unchanged.

    Returns:
        Arrivals in slot order.
    """
    check_network_size(n)
    if rate < 0 or slots < 0:
        raise ValueError("rate and slots must be non-negative")
    if mean_fanout < 1.0:
        raise ValueError("mean_fanout must be >= 1")
    if not 0.0 <= high_priority_fraction <= 1.0:
        raise ValueError(
            "high_priority_fraction must be in [0, 1], got "
            f"{high_priority_fraction}"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    arrivals: List[Arrival] = []
    counter = 0
    p = 1.0 / mean_fanout
    for slot in range(slots):
        for _ in range(int(rng.poisson(rate))):
            src = int(rng.integers(n))
            fanout = min(int(rng.geometric(p)), n)
            dests = frozenset(
                int(d) for d in rng.choice(n, size=fanout, replace=False)
            )
            priority = 0
            if high_priority_fraction > 0.0:
                priority = int(rng.random() < high_priority_fraction)
            arrivals.append(
                Arrival(
                    slot,
                    Request(
                        src,
                        dests,
                        payload=f"call{counter}",
                        priority=priority,
                    ),
                )
            )
            counter += 1
    return arrivals


@dataclass
class QueueingReport:
    """Statistics of one queueing simulation.

    Attributes:
        n: switch size.
        slots_run: frame slots simulated (>= the arrival horizon; the
            simulator keeps running until the backlog drains).
        served: requests delivered.
        waits: per-request waiting time in slots (service slot minus
            arrival slot).
        backlog_per_slot: backlog size at the end of each slot.
        deliveries: total (output, message) deliveries.
        requeued: fault-aware runs — times a request's failed terminals
            were put back on the backlog for a later slot.
        abandoned: fault-aware runs — requests given up after
            ``max_requeues`` requeues still left terminals undelivered.
        shed: requests refused by the admission gate at arrival (never
            queued, never served).
        recovered: requests fully served only after at least one
            requeue (a subset of ``served``).
        serve_ms: wall-clock milliseconds spent routing each non-empty
            slot's frame (the latency a per-slot deadline bounds).
    """

    n: int
    slots_run: int = 0
    served: int = 0
    waits: List[int] = field(default_factory=list)
    backlog_per_slot: List[int] = field(default_factory=list)
    deliveries: int = 0
    requeued: int = 0
    abandoned: int = 0
    shed: int = 0
    recovered: int = 0
    serve_ms: List[float] = field(default_factory=list)

    @property
    def mean_wait(self) -> float:
        """Mean waiting time in slots."""
        return sum(self.waits) / len(self.waits) if self.waits else 0.0

    @property
    def max_wait(self) -> int:
        """Worst waiting time in slots."""
        return max(self.waits, default=0)

    @property
    def peak_backlog(self) -> int:
        """Largest end-of-slot backlog observed."""
        return max(self.backlog_per_slot, default=0)

    @property
    def p95_serve_ms(self) -> float:
        """95th-percentile per-slot serve latency in milliseconds
        (nearest-rank over :attr:`serve_ms`; 0.0 with no samples)."""
        if not self.serve_ms:
            return 0.0
        ordered = sorted(self.serve_ms)
        rank = max(0, -(-95 * len(ordered) // 100) - 1)
        return ordered[rank]


class QueueingSimulator:
    """Serve an arrival stream, one verified multicast frame per slot.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig`, or a bare
            switch size — long arrival simulations are exactly where
            ``engine="fast"`` and its plan cache pay off.
        policy: backlog packing order — ``"largest_first"`` (fanout
            descending, FIFO within ties) or ``"fifo"``.
        max_slots: safety bound on total slots simulated.
        observer: optional :class:`~repro.obs.events.Observer`
            (overrides the config's); receives the routed frames'
            lifecycle events plus one end-of-slot ``queue_depth``
            event (stage ``arrivals``) per slot.
        max_requeues: fault-aware runs — times a request's failed
            terminals may be put back on the backlog before the request
            is abandoned.
        retry_policy: fault-aware runs — the
            :class:`~repro.faults.healing.RetryPolicy` of the per-slot
            healing loop.

    An ``admission`` policy on the config installs an
    :class:`~repro.resilience.gate.AdmissionGate` that admits or sheds
    each request the slot it arrives (queue depth = current backlog);
    ``deadline_ms`` bounds each slot's healing retries.  Both default
    to off.  A ``control`` policy runs a
    :class:`~repro.control.plane.ControlPlane` over the slot loop: one
    deterministic control tick at the end of every slot, retuning the
    gate's rate/reserve from the observed window (see
    ``docs/control_plane.md``).

    When the config carries a non-empty fault plan, every slot's frame
    is routed through :func:`~repro.faults.healing.route_with_healing`:
    terminals the in-slot retries cannot reach are re-queued as a
    reduced request for a later slot (a different backlog packing routes
    them through different positions), bounded by ``max_requeues``.

    Single-threaded: :meth:`run` serves every slot on the calling
    thread, and one thread at a time drives a simulator.
    """

    def __init__(
        self,
        n,
        policy: str = "largest_first",
        max_slots: int = 100_000,
        observer=None,
        max_requeues: int = 3,
        retry_policy=None,
    ):
        cfg = _resolve_config(n, observer=observer)
        if policy not in ("largest_first", "fifo"):
            raise ValueError(
                f"unknown policy {policy!r} "
                "(expected 'largest_first' or 'fifo')"
            )
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        self.control, cfg = control_for(cfg)
        self.n = cfg.n
        self.policy = policy
        self.network = build_network(cfg)
        self.observer = cfg.observer
        self.max_slots = max_slots
        self.max_requeues = max_requeues
        self._fault_aware = (
            cfg.fault_plan is not None and not cfg.fault_plan.is_empty
        )
        self.retry_policy = (
            healing.RetryPolicy()
            if retry_policy is None and self._fault_aware
            else retry_policy
        )
        self.deadline_ms = cfg.deadline_ms
        self.gate = (
            None
            if cfg.admission is None
            else AdmissionGate(cfg.admission, observer=cfg.observer)
        )
        if self.control is not None:
            self.control.bind(
                gate=self.gate,
                retry_policy=self.retry_policy,
                retry_setter=lambda p: setattr(self, "retry_policy", p),
            )

    def _pack_frame(self, backlog: List[Arrival]) -> List[int]:
        """Pick a conflict-free subset of the backlog (greedy); returns
        indices into the backlog, to be served this slot."""
        order = range(len(backlog))
        if self.policy == "largest_first":
            order = sorted(
                order, key=lambda i: (-backlog[i].request.fanout, i)
            )
        chosen: List[int] = []
        for i in order:
            r = backlog[i].request
            if all(not conflicts(r, backlog[j].request) for j in chosen):
                chosen.append(i)
        return sorted(chosen)

    def run(self, arrivals: Sequence[Arrival]) -> QueueingReport:
        """Simulate until every arrival has been served.

        Raises:
            RuntimeError: if the backlog fails to drain within
                ``max_slots`` (offered load persistently above
                capacity).
        """
        report = QueueingReport(n=self.n)
        obs = self.observer
        observed = obs is not None and obs.enabled
        pending = sorted(arrivals, key=lambda a: a.slot)
        backlog: List[Arrival] = []
        # Requeue budget per in-backlog arrival object; entries are
        # popped when the arrival is served/requeued/abandoned, so ids
        # are only ever read while their object is alive.
        requeue_counts: dict = {}
        slot = 0
        idx = 0
        while idx < len(pending) or backlog:
            if slot >= self.max_slots:
                raise RuntimeError(
                    f"backlog failed to drain within {self.max_slots} slots"
                )
            if self.gate is not None:
                self.gate.tick()
            while idx < len(pending) and pending[idx].slot <= slot:
                arrival = pending[idx]
                idx += 1
                if self.gate is not None and not self.gate.admit(
                    priority=arrival.request.priority,
                    queue_depth=len(backlog),
                ):
                    report.shed += 1
                    continue
                backlog.append(arrival)
            chosen = self._pack_frame(backlog)
            served_now = 0
            if chosen:
                serve_start = perf_counter_ns()
                dests: List[Optional[List[int]]] = [None] * self.n
                payloads: List[object] = [None] * self.n
                for i in chosen:
                    r = backlog[i].request
                    dests[r.source] = sorted(r.destinations)
                    payloads[r.source] = r.payload
                frame = MulticastAssignment(self.n, dests)
                if self._fault_aware:
                    served_now, requeues = self._serve_healed(
                        frame, payloads, backlog, chosen,
                        slot, report, requeue_counts,
                    )
                else:
                    result = self.network.route(frame, payloads=payloads)
                    check = verify_result(result)
                    if not check.ok:
                        raise InvalidAssignmentError(
                            "queueing frame failed verification: "
                            + "; ".join(check.violations)
                        )
                    report.deliveries += check.deliveries
                    for i in chosen:
                        report.waits.append(slot - backlog[i].slot)
                        report.served += 1
                    served_now, requeues = len(chosen), []
                taken = set(chosen)
                backlog = [
                    a for k, a in enumerate(backlog) if k not in taken
                ] + requeues
                report.serve_ms.append(
                    (perf_counter_ns() - serve_start) / 1e6
                )
            if observed:
                emit(obs, "arrivals", "queue_depth", slot=slot,
                     depth=len(backlog), served=served_now)
            if self.control is not None:
                self.control.maybe_tick(queue_depth=len(backlog))
            slot += 1
            report.backlog_per_slot.append(len(backlog))
        report.slots_run = slot
        return report

    def close(self) -> None:
        """Close the network (a no-op kept for a uniform session
        lifecycle; see :meth:`~repro.core.brsmn.BRSMN.close`)."""
        close = getattr(self.network, "close", None)
        if close is not None:
            close()

    def _serve_healed(
        self, frame, payloads, backlog, chosen, slot, report, requeue_counts
    ) -> Tuple[int, List[Arrival]]:
        """Serve one slot's frame through the healing loop.

        Requests whose terminals the in-slot retries could not reach are
        put back on the backlog as a *reduced* request (only the failed
        terminals, original arrival slot) up to ``max_requeues`` times,
        then abandoned.  With ``deadline_ms`` on the config, a fresh
        :class:`~repro.resilience.budget.DeadlineBudget` bounds the
        slot's retries.  Returns the number of requests fully served
        this slot and the reduced requests to append to the backlog.
        """
        result = healing.route_with_healing(
            self.network,
            frame,
            payloads=payloads,
            policy=self.retry_policy,
            budget=(
                None
                if self.deadline_ms is None
                else DeadlineBudget(self.deadline_ms)
            ),
        )
        report.deliveries += result.verification.deliveries
        lost = set(result.lost)
        served_now = 0
        requeues: List[Arrival] = []
        for i in chosen:
            arrival = backlog[i]
            r = arrival.request
            failed = r.destinations & lost
            budget_used = requeue_counts.pop(id(arrival), 0)
            if not failed:
                report.waits.append(slot - arrival.slot)
                report.served += 1
                served_now += 1
                if budget_used > 0:
                    report.recovered += 1
            elif budget_used >= self.max_requeues:
                report.abandoned += 1
            else:
                report.requeued += 1
                retry = Arrival(
                    arrival.slot,
                    Request(
                        r.source,
                        frozenset(failed),
                        payload=r.payload,
                        priority=r.priority,
                    ),
                )
                requeue_counts[id(retry)] = budget_used + 1
                requeues.append(retry)
        return served_now, requeues
