"""Admission control: shed load *before* it reaches the fabric.

The BRSMN is nonblocking per frame, but nothing upstream of it bounds
the offered load — an arrival burst grows the
:class:`~repro.core.arrivals.QueueingSimulator` backlog (and the
fabric's latency) without limit.  The classical fix (buffered-MIN and
multicast-admission studies alike) is a policy *in front of* the
fabric: admit what the service rate can carry, shed the rest early and
predictably, lowest priority first.

:class:`AdmissionGate` implements that policy as a deterministic token
bucket plus queue-depth watermarks:

* **token bucket** — ``rate`` tokens per tick (the fabric ticks once
  per submission, the simulator once per slot), capped at ``burst``;
  each admitted frame spends one token.  Deliberately tick-based, not
  wall-clock-based: simulations and tests stay reproducible.
* **watermarks** — above ``soft_watermark`` backlog depth only
  priority > 0 frames are admitted; at ``hard_watermark`` everything is
  shed (the queue must drain).
* **priority reserve** — ``reserve`` tokens are spendable only by
  priority > 0 frames, so best-effort traffic cannot starve the
  high-priority class during a burst.

What the gate admits is then scheduled by the existing frame packer
(:mod:`repro.core.admission`) exactly as before — admission decides
*whether* a request enters the system, the scheduler decides *when*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..obs.events import emit

__all__ = ["AdmissionPolicy", "AdmissionGate", "ShedFrame"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Static configuration of an :class:`AdmissionGate`.

    The defaults are all-permissive (infinite rate and watermarks), so
    an ``AdmissionPolicy()`` admits everything — fields are tightened
    individually.

    Attributes:
        rate: tokens refilled per tick (mean admissions per slot).
        burst: token-bucket capacity (largest admissible burst).
        soft_watermark: backlog depth at and above which priority <= 0
            frames are shed.
        hard_watermark: backlog depth at and above which *all* frames
            are shed until the queue drains.
        reserve: tokens spendable only by priority > 0 frames.
    """

    rate: float = math.inf
    burst: float = math.inf
    soft_watermark: float = math.inf
    hard_watermark: float = math.inf
    reserve: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.soft_watermark < 0:
            raise ValueError(
                f"soft_watermark must be >= 0, got {self.soft_watermark}"
            )
        if self.hard_watermark < 0:
            raise ValueError(
                f"hard_watermark must be >= 0, got {self.hard_watermark}"
            )
        if self.hard_watermark < self.soft_watermark:
            raise ValueError(
                f"hard_watermark ({self.hard_watermark}) must be >= "
                f"soft_watermark ({self.soft_watermark})"
            )
        if self.reserve < 0:
            raise ValueError(f"reserve must be >= 0, got {self.reserve}")
        if math.isfinite(self.burst) and self.reserve >= self.burst:
            raise ValueError(
                f"reserve ({self.reserve}) must be < burst ({self.burst}), "
                "or no best-effort frame could ever be admitted"
            )

    @property
    def unlimited(self) -> bool:
        """True when this policy can never shed anything."""
        return (
            math.isinf(self.rate)
            and math.isinf(self.soft_watermark)
            and math.isinf(self.hard_watermark)
        )


@dataclass(frozen=True)
class ShedFrame:
    """Marker returned by :meth:`MulticastFabric.submit` for a frame
    the admission gate refused.

    A shed frame was *never routed* — it carries no deliveries and
    counts in :attr:`~repro.core.fabric.FabricStats.shed_frames`, not
    ``frames``.  Callers distinguish it by type (or by its falsy
    :attr:`ok`).

    Attributes:
        assignment: the refused assignment.
        priority: the priority class it was submitted with.
        reason: ``"watermark"`` (queue-depth shed) or ``"tokens"``
            (rate shed).
    """

    assignment: object
    priority: int = 0
    reason: str = "tokens"

    @property
    def ok(self) -> bool:
        """Always False — nothing was delivered."""
        return False


class AdmissionGate:
    """A deterministic token-bucket + watermark admission controller.

    Args:
        policy: the :class:`AdmissionPolicy` to enforce (default: the
            all-permissive policy).
        observer: optional :class:`~repro.obs.events.Observer`
            receiving one ``admitted`` / ``shed`` event
            (``resilience.gate``) per decision.

    The gate is tick-driven: the owner calls :meth:`tick` once per
    service opportunity (one fabric submission, one simulator slot) and
    :meth:`admit` once per candidate frame.  Both are O(1); with the
    default policy :meth:`admit` never sheds.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        observer: Optional[object] = None,
    ):
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.observer = observer
        self.tokens = self.policy.burst
        self.admitted = 0
        self.shed = 0
        self.admitted_by_priority: Dict[int, int] = {}
        self.shed_by_priority: Dict[int, int] = {}
        self.last_reason = ""

    def tick(self) -> None:
        """Refill the bucket for one service opportunity."""
        self.tokens = min(self.policy.burst, self.tokens + self.policy.rate)

    def update_policy(self, **changes) -> AdmissionPolicy:
        """Swap in a revalidated policy mid-flight (the control plane's
        actuator hook).

        Args:
            **changes: :class:`AdmissionPolicy` fields to replace —
                typically ``rate`` and ``reserve`` from the AIMD loop.

        Returns:
            the new active policy.  The token bucket carries over,
            clamped to the new burst; counters are untouched, so a
            campaign's admission accounting spans policy changes.
        """
        self.policy = replace(self.policy, **changes)
        self.tokens = min(self.tokens, self.policy.burst)
        return self.policy

    def admit(self, priority: int = 0, queue_depth: int = 0) -> bool:
        """Decide one frame; True admits (and spends a token).

        Args:
            priority: the frame's priority class (> 0 is privileged:
                exempt from the soft watermark, allowed to spend the
                token reserve).
            queue_depth: current backlog depth behind the gate (0 for
                queueless callers like the fabric).
        """
        p = self.policy
        floor = p.reserve if priority <= 0 else 0.0
        if queue_depth >= p.hard_watermark or (
            priority <= 0 and queue_depth >= p.soft_watermark
        ):
            reason = "watermark"
        elif self.tokens - 1.0 < floor - 1e-12:
            reason = "tokens"
        else:
            reason = ""
        if reason:
            self.shed += 1
            counts = self.shed_by_priority
        else:
            if math.isfinite(self.tokens):
                self.tokens -= 1.0
            self.admitted += 1
            counts = self.admitted_by_priority
        counts[priority] = counts.get(priority, 0) + 1
        self.last_reason = reason
        obs = self.observer
        if obs is not None and obs.enabled:
            emit(obs, "resilience.gate", "shed" if reason else "admitted",
                 priority=priority,
                 tokens=self.tokens if math.isfinite(self.tokens) else -1.0,
                 queue_depth=queue_depth)
        return not reason
