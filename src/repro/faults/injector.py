"""Apply a :class:`~repro.faults.plan.FaultPlan` to in-flight frames.

This is the reference-engine half of fault injection (the fast engine
compiles the same plan into its gather arrays — see
``repro/core/fastplan.py``).  :class:`FaultInjector` mutates the
message frame at each fault plane exactly as the plane model
prescribes:

* ``stuck_at`` with a crossed setting swaps the two link positions —
  the crossed setting of Fig. 3b applied unconditionally: the fault
  sits between levels, after tags have been consumed, so every input
  pair is legal and the cell is a plain exchange;
* ``dead_switch`` / ``flaky_link`` lose *payloads*, not circuits: the
  message object keeps routing (its tag stream still drives every
  downstream switch) but carries the :data:`PAYLOAD_LOST` sentinel, and
  the network scrubs such deliveries to ``None`` at the outputs.

Keeping the circuit alive on payload loss is what makes fault behaviour
identical across engines: the set of switch settings — and therefore
every *other* message's path — is unchanged by a drop, so a compiled
routing plan remains valid and only the casualty set varies per
attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .plan import Fault, FaultKind, FaultPlan

__all__ = ["PAYLOAD_LOST", "FaultHit", "FaultInjector"]


class _PayloadLost:
    """Singleton sentinel payload of a message whose data was dropped."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<payload lost>"


PAYLOAD_LOST = _PayloadLost()
"""Sentinel carried by messages whose payload a fault destroyed."""


@dataclass(frozen=True)
class FaultHit:
    """One fault actually touching traffic during a routing pass.

    Attributes:
        fault: the fault that fired.
        outputs: the terminal outputs whose deliveries were affected
            (destination sets of the messages on the faulty cell).
    """

    fault: Fault
    outputs: Tuple[int, ...]


def _destinations(msg) -> Tuple[int, ...]:
    """Sorted remaining destinations of a message (empty for ``None``)."""
    return () if msg is None else tuple(sorted(msg.destinations))


class FaultInjector:
    """Stateful applier of one fault plan (reference engine).

    The only mutable state is :attr:`attempt` — the current routing
    attempt number, bumped by the healing layer between retries so
    ``flaky_link`` faults re-roll their drops.

    Args:
        plan: the fault plan to apply (must be non-empty; the engines
            treat an empty plan as "no injector at all" so the healthy
            path stays untouched).
    """

    def __init__(self, plan: FaultPlan):
        if plan.is_empty:
            raise ValueError(
                "FaultInjector needs a non-empty plan; pass fault_plan=None "
                "(or an empty plan) to route fault-free"
            )
        self.plan = plan
        self.attempt: int = 0
        self._by_level: Dict[int, Tuple[Fault, ...]] = {
            level: plan.at_level(level) for level in plan.levels
        }

    def has_level(self, level: int) -> bool:
        """True when any fault lives on plane ``level``."""
        return level in self._by_level

    def apply_plane(
        self, level: int, base: int, frame: List, delivery: bool = False
    ) -> List[FaultHit]:
        """Apply plane ``level``'s faults to a frame slice, in place.

        Args:
            level: the fault plane (1-based).
            base: absolute position of ``frame[0]``.
            frame: mutable list of messages covering positions
                ``base .. base + len(frame) - 1``.  Mutated in place.
            delivery: True when ``frame`` holds *delivered* messages
                (plane ``m`` on the output links).  There, a hit's
                affected set is the output addresses touched, not the
                messages' destination sets — a broadcast message sits at
                both slots of a cell, and a single-link drop silences
                only one of them.

        Returns:
            One :class:`FaultHit` per fault that touched at least one
            message (silent faults — stuck-parallel cells, faults over
            idle links, flaky links that did not drop — produce none).
        """
        faults = self._by_level.get(level)
        if not faults:
            return []
        hits: List[FaultHit] = []
        hi = base + len(frame)
        for fault in faults:
            p, q = fault.positions
            if p < base or q >= hi:
                continue
            i, j = p - base, q - base
            upper, lower = frame[i], frame[j]
            if upper is None and lower is None:
                continue
            affected: Tuple[int, ...] = ()
            if fault.kind is FaultKind.STUCK_AT:
                if fault.stuck_setting == 1:
                    frame[i], frame[j] = lower, upper
                    if delivery:
                        affected = tuple(
                            pos
                            for pos, msg in ((p, upper), (q, lower))
                            if msg is not None
                        )
                    else:
                        affected = tuple(
                            sorted(
                                set(_destinations(upper) + _destinations(lower))
                            )
                        )
            else:
                drop_upper, drop_lower = fault.drop_mask(self.attempt)
                lost = set()
                if drop_upper and upper is not None:
                    frame[i] = replace(upper, payload=PAYLOAD_LOST)
                    lost.update((p,) if delivery else _destinations(upper))
                if drop_lower and lower is not None:
                    frame[j] = replace(lower, payload=PAYLOAD_LOST)
                    lost.update((q,) if delivery else _destinations(lower))
                affected = tuple(sorted(lost))
            if affected:
                hits.append(FaultHit(fault=fault, outputs=affected))
        return hits

    @staticmethod
    def scrub(outputs: List) -> List:
        """Replace payload-lost deliveries with ``None`` (new list).

        Applied once per routing pass at the network outputs: a message
        whose payload a fault destroyed arrives as silence, i.e. a
        missing delivery the verification layer can detect.
        """
        return [
            None
            if (msg is not None and msg.payload is PAYLOAD_LOST)
            else msg
            for msg in outputs
        ]
