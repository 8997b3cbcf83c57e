"""Warm restart: snapshot / restore a fabric's learned state.

A restarted :class:`~repro.core.fabric.MulticastFabric` starts cold:
every hot assignment pays a full plan compile again, and a quarantined
fault plane is forgotten — the new process re-learns the fault the
expensive way, frame by degraded frame.  :class:`FabricSnapshot` makes
both survive the restart as one JSON document:

* **plan cache** — the *assignments* behind every cached
  :class:`~repro.core.fastplan.FramePlan`, in LRU order.  Fingerprints
  alone would not do (they are one-way hashes), so the caches retain
  each entry's assignment; restore re-compiles them through the new
  network's own compiler, which keeps the restored plans honest about
  the new network's fault plan (same assignment, possibly different
  plan).
* **health tracker** — the primary plane's quarantine state machine,
  so a plane quarantined before the restart stays drained after it.
* **circuit breaker** — the breaker state, when the fabric runs one.

Round trip::

    snap = FabricSnapshot.capture(fabric)
    snap.save("fabric.json")
    ...
    fabric2 = MulticastFabric(cfg)          # fresh process
    FabricSnapshot.load("fabric.json").restore(fabric2)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.multicast import MulticastAssignment
from ..obs.events import emit

__all__ = ["FabricSnapshot"]

_FORMAT_VERSION = 1


@dataclass
class FabricSnapshot:
    """Restorable state of one fabric: plans, plane health, breaker.

    Attributes:
        n: network size the snapshot was taken from (restore refuses a
            mismatch).
        assignments: destination lists of every cached plan's
            assignment, LRU order (oldest first, so restoring preserves
            eviction order).  Each entry is the assignment's
            ``{input: [outputs]}`` mapping with string keys (JSON).
        health: :meth:`~repro.faults.health.HealthTracker.snapshot`
            state, or ``None`` when the fabric tracked no plane health.
        breaker: :meth:`~repro.resilience.breaker.CircuitBreaker.snapshot`
            state, or ``None``.
    """

    n: int
    assignments: List[Dict[str, List[int]]] = field(default_factory=list)
    health: Optional[Dict[str, object]] = None
    breaker: Optional[Dict[str, object]] = None

    @classmethod
    def capture(cls, fabric) -> "FabricSnapshot":
        """Snapshot a fabric's plan cache, health and breaker state."""
        cache = getattr(fabric.network, "plan_cache", None)
        assignments: List[Dict[str, List[int]]] = []
        if cache is not None:
            for asg in cache.snapshot_assignments():
                assignments.append(
                    {
                        str(i): sorted(asg[i])
                        for i in asg.active_inputs
                    }
                )
        health = fabric.health.snapshot() if fabric.health is not None else None
        breaker = (
            fabric.breaker.snapshot()
            if getattr(fabric, "breaker", None) is not None
            else None
        )
        snap = cls(
            n=fabric.n,
            assignments=assignments,
            health=health,
            breaker=breaker,
        )
        emit(fabric.observer, "resilience.snapshot", "snapshot_saved",
             plans=len(assignments))
        return snap

    def restore(self, fabric) -> int:
        """Warm a (typically fresh) fabric from this snapshot.

        Re-compiles every snapshotted assignment into the fabric's plan
        cache — through the fabric's own compiler, so a different fault
        plan yields correctly different plans — and re-adopts the
        health-tracker and breaker states.  Returns the number of plans
        compiled (0 on a reference-engine fabric, which has no cache).

        Raises:
            ValueError: when the snapshot is for a different ``n``.
        """
        if fabric.n != self.n:
            raise ValueError(
                f"snapshot is for n={self.n}, fabric is n={fabric.n}"
            )
        warmed = 0
        cache = getattr(fabric.network, "plan_cache", None)
        if cache is not None:
            for mapping in self.assignments:
                asg = MulticastAssignment.from_dict(
                    self.n, {int(k): v for k, v in mapping.items()}
                )
                fabric.network._plan(asg)
                warmed += 1
        if self.health is not None and fabric.health is not None:
            fabric.health.restore(self.health)
        if (
            self.breaker is not None
            and getattr(fabric, "breaker", None) is not None
        ):
            fabric.breaker.restore(self.breaker)
        emit(fabric.observer, "resilience.snapshot", "snapshot_restored",
             plans=warmed)
        return warmed

    def to_json(self) -> str:
        """Serialise to the versioned JSON document."""
        return json.dumps(
            {
                "kind": "fabric_snapshot",
                "version": _FORMAT_VERSION,
                "n": self.n,
                "assignments": self.assignments,
                "health": self.health,
                "breaker": self.breaker,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FabricSnapshot":
        """Parse a document produced by :meth:`to_json`."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("kind") != "fabric_snapshot":
            raise ValueError('expected {"kind": "fabric_snapshot", ...}')
        if doc.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {doc.get('version')!r}"
            )
        return cls(
            n=int(doc["n"]),
            assignments=[
                {str(k): [int(d) for d in v] for k, v in m.items()}
                for m in doc.get("assignments", [])
            ],
            health=doc.get("health"),
            breaker=doc.get("breaker"),
        )

    def save(self, path: str) -> None:
        """Write the JSON document to ``path`` (creating parent dirs)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FabricSnapshot":
        """Read a snapshot written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(fh.read())
