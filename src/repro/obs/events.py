"""The one event model of the routing stack, and its observer protocol.

Every layer reports what happened as an :class:`Event` tagged with the
``stage`` (layer) that owns it and the ``kind`` of thing that happened,
delivered to one hook, :meth:`Observer.on_event` — the way a BRSMN
carries one uniform tagged message through every stage.  Stage names
are the layer names of the serving benchmark's per-layer trace, so a
frame's events line up with its spans.

Observation is strictly pay-for-what-you-use: every emission site is
gated on ``observer is not None and observer.enabled``, so routing with
no observer costs one attribute test per frame, and the
:class:`NullSink` (``enabled = False``) costs exactly the same — it
exists so callers can wire the plumbing unconditionally and flip
collection on without touching call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, Tuple

__all__ = ["Event", "emit", "Observer", "NullSink", "CompositeObserver"]


@dataclass(frozen=True)
class Event:
    """One thing that happened in one layer of the stack.

    Attributes:
        kind: what happened (``"frame_done"``, ``"miss"``, ``"shed"``, ...).
        stage: the layer that owns the event; a ``(stage, kind)`` pair
            names exactly one event type.
        frame_id: the frame involved, when the layer knows it (-1
            otherwise).
        t_ns: ``perf_counter_ns`` timestamp of the emission (0 when
            constructed by hand).
        fields: the payload of the event type, as listed below.

    The payload of each ``(stage, kind)``:

    ``brsmn`` — a network routing a frame (or a payload batch):

    * ``frame_start``: ``n``, ``engine``, ``mode``, ``frames`` (payload
      frames in the submission), ``active_inputs``, ``fanout`` (total
      destinations).
    * ``level``: one reference-engine recursion level finished —
      ``level`` (1-based), ``size``, ``blocks``, ``splits``,
      ``switch_ops``, ``stage_ns`` (``{"bsn" | "deliver": ns}``),
      ``duration_ns``, ``engine``.
    * ``injected``: a fault touched traffic — ``fault`` (its kind),
      ``level``, ``index``, ``attempt``, ``terminals``.
    * ``frame_done``: ``engine``, ``mode``, ``frames``, ``deliveries``,
      ``splits`` and ``switch_ops`` (per frame), ``duration_ns``,
      ``cache_hit`` (True / False on the fast engine, None otherwise).

    ``fastplan`` — ``level``: a fast-engine level compiled, same fields
    as the reference ``level`` with ``stage_ns`` over ``tag`` /
    ``scatter`` / ``quasisort`` / ``gather``.

    ``fastplan.plan_cache`` — ``hit``, ``miss``, ``evict``, ``clear`` and
    ``coalesced`` (a miss that waited on another thread's in-flight
    compile): ``key`` (the fingerprint; empty on ``clear``), ``size``
    (plans cached after the event).

    ``arrivals`` — ``queue_depth``: ``slot``, ``depth`` (end-of-slot
    backlog), ``served``.

    ``faults.healing`` — ``detected``, ``retry``, ``recovered``, ``lost``:
    ``attempt``, ``terminals``; ``deadline_expired``: no fields.

    ``fabric`` — primary-plane transitions ``quarantined``,
    ``probation``, ``readmitted``: no fields.

    ``resilience.gate`` — ``admitted`` / ``shed``: ``priority``,
    ``tokens`` (bucket level after the decision, -1 when unlimited),
    ``queue_depth``.

    ``resilience.breaker`` — ``breaker_open`` / ``breaker_half_open`` /
    ``breaker_closed`` and ``short_circuit``: ``scope``.

    ``resilience.snapshot`` — ``snapshot_saved`` / ``snapshot_restored``:
    ``plans``.

    ``control`` — ``tick``: ``tick``; ``adjust``: ``controller``,
    ``parameter``, ``old``, ``new``, ``reason``, ``tick``.

    ``cluster`` — ``submitted``, ``requeued``, ``spillover``, ``shed``,
    ``killed``, ``drain``, ``readmit``: ``replica``; ``snapshot`` and
    ``restore``: ``replica``, ``plans``; ``state``: ``replica``,
    ``state`` (``"up"`` / ``"draining"`` / ``"down"``), ``up``
    (replicas accepting placements).
    """

    kind: str
    stage: str
    frame_id: int = -1
    t_ns: int = 0
    fields: Dict[str, object] = field(default_factory=dict)


def emit(
    observer, stage: str, kind: str, frame_id: int = -1, **fields
) -> None:
    """Deliver one timestamped :class:`Event` if ``observer`` listens."""
    if observer is not None and observer.enabled:
        t_ns = perf_counter_ns()
        observer.on_event(Event(kind, stage, frame_id, t_ns, fields))


class Observer:
    """Base observer: ignores every event; subclass :meth:`on_event`.

    Attributes:
        enabled: emission gate — sites skip all event construction when
            False, so a disabled observer costs one attribute test per
            frame.
    """

    enabled: bool = True

    def on_event(self, event: Event) -> None:
        """Something happened; see :class:`Event` for the vocabulary."""


class NullSink(Observer):
    """A do-nothing observer that keeps every emission site dormant.

    ``enabled = False`` short-circuits all event construction; routing
    with a :class:`NullSink` attached is benchmarked to stay within 5%
    of routing with no observer at all
    (``benchmarks/bench_fast_engine.py``).
    """

    enabled = False


class CompositeObserver(Observer):
    """Fan one event stream out to several observers.

    Args:
        *observers: the observers to notify, in order.  Disabled
            observers are dropped at construction; the composite itself
            is disabled when nothing remains.
    """

    def __init__(self, *observers: Observer):
        self.observers: Tuple[Observer, ...] = tuple(
            o for o in observers if o is not None and o.enabled
        )
        self.enabled = bool(self.observers)

    def on_event(self, event: Event) -> None:
        for o in self.observers:
            o.on_event(event)
