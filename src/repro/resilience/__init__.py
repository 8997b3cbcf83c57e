"""Overload resilience: deadlines, admission, breakers, warm restart.

The routing stack below this package answers "is the frame
realisable?"; this package answers "what happens when too many frames
arrive, a plane goes bad, or the process restarts?" —
the serving-layer concerns that govern throughput under contention:

* :mod:`~repro.resilience.budget` — :class:`DeadlineBudget`, the
  wall-clock allowance carried from
  :meth:`~repro.core.fabric.MulticastFabric.submit` down through the
  healing retries, so an overloaded
  frame is accounted, never hung;
* :mod:`~repro.resilience.gate` — :class:`AdmissionGate` /
  :class:`AdmissionPolicy`, the deterministic token-bucket +
  queue-watermark controller that sheds lowest-priority load before it
  grows the backlog (returning :class:`ShedFrame` markers);
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker` /
  :class:`BreakerPolicy`, the closed -> open -> half-open state machine
  that short-circuits a persistently bad plane instead of burning
  retries, coupled to
  :class:`~repro.faults.health.HealthTracker` quarantine;
* :mod:`~repro.resilience.snapshot` — :class:`FabricSnapshot`, the
  JSON warm-restart capture of cached plan assignments, plane health
  and breaker state.

Everything is wired through
:class:`~repro.core.config.NetworkConfig(deadline_ms=..., admission=...,
breaker=...)`, observable as ``resilience.*`` events /
``repro_resilience_*`` metric families, and drivable from the CLI
(``repro chaos --overload``).  Semantics are documented in
``docs/resilience.md``.
"""

from .breaker import BreakerPolicy, BreakerState, CircuitBreaker
from .budget import DeadlineBudget
from .gate import AdmissionGate, AdmissionPolicy, ShedFrame
from .snapshot import FabricSnapshot

__all__ = [
    "AdmissionGate",
    "AdmissionPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineBudget",
    "FabricSnapshot",
    "ShedFrame",
]
