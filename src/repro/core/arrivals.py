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
  (largest-first or FIFO), serve it through a
  :class:`~repro.core.fabric.MulticastFabric` (verified), and record
  each request's waiting time;
* :class:`QueueingReport` — waiting-time and backlog statistics.

The point: the nonblocking guarantee is per *frame*; end-to-end call
latency is a queueing phenomenon governed by port contention, which
this simulation measures instead of hand-waving.

When the config carries an admission policy, an
:class:`~repro.resilience.gate.AdmissionGate` admits or sheds each
request *at arrival* (the gate ticks once per slot; shed requests are
counted in :attr:`QueueingReport.shed` and never enter the backlog).
Every other resilience setting (``deadline_ms``, ``snapshot_path``,
and the fault plan's failover) acts on the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter_ns
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..control.plane import ControlPlane
from ..obs.events import emit
from ..rbn.permutations import check_network_size
from ..resilience.gate import AdmissionGate
from .admission import Request, conflicts
from .config import _resolve_config
from .fabric import MulticastFabric
from .multicast import MulticastAssignment

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
        deliveries: (output, message) deliveries verified during this
            run, not over the fabric's lifetime.
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
        max_requeues: times a request's lost terminals may be put
            back on the backlog before the request is abandoned.
        retry_policy: the fabric's
            :class:`~repro.faults.healing.RetryPolicy` (fault-aware runs).

    The simulator owns arrivals, the backlog, packing and requeue; each
    slot's frame is served by one
    :class:`~repro.core.fabric.MulticastFabric` (:attr:`fabric`) built
    from the config minus ``admission`` and ``control``, so
    verification, ``deadline_ms``, ``snapshot_path`` and a fault plan's
    failover to the standby act as in a fabric session.
    Terminals a frame still loses are re-queued as a reduced request for
    a later slot, bounded by ``max_requeues``.

    An ``admission`` policy installs an
    :class:`~repro.resilience.gate.AdmissionGate` that admits or sheds
    each request the slot it arrives (queue depth = current backlog).
    A ``control`` policy runs a
    :class:`~repro.control.plane.ControlPlane` that ticks at the end of
    every slot, retuning the gate's rate and reserve (see
    ``docs/control_plane.md``).

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
        self.n = cfg.n
        self.policy = policy
        self.observer = cfg.observer
        self.max_slots = max_slots
        self.max_requeues = max_requeues
        self.fabric = MulticastFabric(
            replace(cfg, admission=None, control=None),
            retry_policy=retry_policy,
        )
        self.gate = (
            None
            if cfg.admission is None
            else AdmissionGate(cfg.admission, observer=cfg.observer)
        )
        self.control = (
            None
            if cfg.control is None
            else ControlPlane(
                cfg.control, observer=cfg.observer, gate=self.gate
            )
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
            RoutingInvariantError: if a frame fails verification.
        """
        report = QueueingReport(n=self.n)
        obs = self.observer
        observed = obs is not None and obs.enabled
        deliveries_before = self.fabric.stats.deliveries
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
                for i in chosen:
                    r = backlog[i].request
                    dests[r.source] = sorted(r.destinations)
                result = self.fabric.submit(MulticastAssignment(self.n, dests))
                served_now, requeues = self._settle(
                    set(getattr(result, "lost", ())), backlog, chosen,
                    slot, report, requeue_counts,
                )
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
        report.deliveries = self.fabric.stats.deliveries - deliveries_before
        return report

    def close(self) -> None:
        """End the session: close the fabric, which first writes its
        warm-restart snapshot when the config sets ``snapshot_path``
        (see :meth:`~repro.core.fabric.MulticastFabric.close`)."""
        self.fabric.close()

    def _settle(
        self, lost, backlog, chosen, slot, report, requeue_counts
    ) -> Tuple[int, List[Arrival]]:
        """Account one served slot's requests against its lost terminals.

        Requests whose terminals the fabric could not reach are put back
        on the backlog as a *reduced* request (only the failed
        terminals, original arrival slot) up to ``max_requeues`` times,
        then abandoned.  Returns the number of requests fully served
        this slot and the reduced requests to append to the backlog.
        """
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
