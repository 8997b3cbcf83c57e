"""Verification-driven self-healing: detect, retry, reroute, degrade.

The paper's routing is fire-and-forget — valid assignment in, verified
deliveries out.  Under a :class:`~repro.faults.plan.FaultPlan` that
contract breaks, and this module supplies the recovery loop:

1. **Detect** — after every routing pass,
   :func:`~repro.core.verification.verify_delivery` compares deliveries
   against the assignment; any terminal that is missing or misrouted is
   a casualty.
2. **Retry / reroute** — the failed terminals (only) are re-submitted
   as a *repair assignment* under a fresh attempt number, bounded by a
   :class:`RetryPolicy` with exponential backoff.  Re-routing a sparser
   assignment re-runs the radix sort with a different population, so
   the repair copies traverse *different positions* — in effect the
   sibling sub-networks that Theorem 2's slack leaves idle — which
   steers them around positional faults (dead cells), while flaky
   links simply re-roll.
3. **Degrade** — terminals still failing after the budget are declared
   lost; the caller receives a :class:`DegradedResult` naming every
   terminal's outcome instead of an exception.

The loop is engine-agnostic: it drives any network exposing
``route``/``n``/``observer`` and only talks to faults through the
network's injector attempt counter, so the same healing code serves the
reference and fast engines (and heals nothing, in one pass, on a
healthy network).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.multicast import MulticastAssignment
from ..core.verification import VerificationReport, verify_delivery
from ..obs.events import emit

__all__ = [
    "RetryPolicy",
    "TerminalOutcome",
    "DegradedResult",
    "route_with_healing",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds and pacing of the healing retry loop.

    Attributes:
        max_retries: repair passes allowed after the initial route.
        base_delay_s: backoff before the first retry (0 = no sleeping,
            the right setting for simulations and tests).
        multiplier: exponential backoff factor per further retry.
        max_delay_s: hard cap on any single backoff — exponential
            growth is bounded, so a large retry budget cannot produce
            minute-long sleeps (default: no cap).
        jitter: optional +/- fraction applied to each (capped) delay,
            de-synchronising retry storms; 0 disables it.
        jitter_seed: seed of the jitter stream — the jittered delays
            are a pure function of ``(jitter_seed, retry)``, so tests
            stay deterministic.
    """

    max_retries: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = math.inf
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0:
            raise ValueError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry: int) -> float:
        """Backoff in seconds before retry number ``retry`` (1-based).

        The exponential delay is capped at ``max_delay_s`` first, then
        jittered by a deterministic factor in ``[1 - jitter,
        1 + jitter]`` drawn from ``(jitter_seed, retry)`` — repeated
        calls for the same retry return the same delay.
        """
        if retry < 1:
            raise ValueError(f"retry numbers are 1-based, got {retry}")
        delay = self.base_delay_s * (self.multiplier ** (retry - 1))
        delay = min(delay, self.max_delay_s)
        if self.jitter > 0.0 and delay > 0.0:
            rng = random.Random(f"{self.jitter_seed}:{retry}")
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return delay

    def scaled(self, factor: float) -> "RetryPolicy":
        """A copy with backoff delays scaled by ``factor`` (>= 0).

        Used by the control plane to pace healing retries while the
        circuit breaker is HALF_OPEN: scaling ``base_delay_s`` (and the
        ``max_delay_s`` cap, when finite) stretches every delay of the
        schedule by the same factor while retries, jitter and seed —
        and therefore the *decisions* of a seeded campaign — stay
        untouched.  ``factor == 1`` returns ``self``.
        """
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        if factor == 1.0:
            return self
        max_delay = self.max_delay_s
        if math.isfinite(max_delay):
            max_delay = max_delay * factor
        return replace(
            self, base_delay_s=self.base_delay_s * factor, max_delay_s=max_delay
        )


@dataclass(frozen=True)
class TerminalOutcome:
    """What happened to one terminal (used output) of an assignment.

    Attributes:
        output: the terminal's output address.
        source: the input that should feed it.
        status: ``"delivered"`` (correct on the first pass),
            ``"recovered"`` (correct after a repair pass) or
            ``"lost"`` (still failing when the retry budget ran out).
        attempts: routing passes this terminal took part in.
    """

    output: int
    source: int
    status: str
    attempts: int


@dataclass
class DegradedResult:
    """Outcome of a healed routing call, per terminal.

    ``outputs`` contains a message only where delivery was *verified
    correct* — misrouted or spurious arrivals are scrubbed to ``None``,
    so downstream consumers never act on wrong data.

    Attributes:
        assignment: the original multicast assignment.
        outputs: per-output verified deliveries (``None`` elsewhere).
        outcomes: terminal output -> :class:`TerminalOutcome`.
        attempts: total routing passes performed (1 = no healing
            needed).
        engine: engine of the underlying network.
        total_splits: alpha splits summed over every pass.
        switch_ops: 2x2 switch applications summed over every pass.
        plan_cache_hits / plan_cache_misses: plan-cache lookups of every
            pass answered from the cache / compiled (0 on the reference
            engine).
        verification: report of ``outputs`` against ``assignment``
            (its violations are exactly the lost terminals).
        deadline_expired: True when the healing loop stopped early
            because the caller's
            :class:`~repro.resilience.budget.DeadlineBudget` ran out
            (the remaining failed terminals are then lost).
        short_circuited: True when the healing loop stopped early
            because the caller's circuit breaker denied further repair
            passes.
    """

    assignment: MulticastAssignment
    outputs: List
    outcomes: Dict[int, TerminalOutcome]
    attempts: int
    engine: str = "reference"
    total_splits: int = 0
    switch_ops: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    verification: Optional[VerificationReport] = None
    deadline_expired: bool = False
    short_circuited: bool = False

    def _with_status(self, status: str) -> Tuple[int, ...]:
        return tuple(
            sorted(o for o, out in self.outcomes.items() if out.status == status)
        )

    @property
    def delivered(self) -> Tuple[int, ...]:
        """Terminals correct on the first routing pass."""
        return self._with_status("delivered")

    @property
    def recovered(self) -> Tuple[int, ...]:
        """Terminals repaired by a retry pass."""
        return self._with_status("recovered")

    @property
    def lost(self) -> Tuple[int, ...]:
        """Terminals unreachable within the retry budget."""
        return self._with_status("lost")

    @property
    def ok(self) -> bool:
        """True when every terminal was delivered (possibly healed)."""
        return not self.lost

    @property
    def degraded(self) -> bool:
        """True when any terminal needed healing or was lost."""
        return self.attempts > 1 or bool(self.lost)


def _correct(msg, expected_source: int) -> bool:
    return msg is not None and msg.source == expected_source


def route_with_healing(
    network,
    assignment: MulticastAssignment,
    *,
    mode: str = "selfrouting",
    payloads=None,
    policy: Optional[RetryPolicy] = None,
    budget=None,
    breaker=None,
) -> DegradedResult:
    """Route with post-route detection, bounded retries and rerouting.

    Args:
        network: a routing network (typically a faulted
            :class:`~repro.core.brsmn.BRSMN`); anything exposing
            ``route(assignment, mode=..., payloads=...)``.
        assignment: the multicast assignment to realise.
        mode: routing mode for every pass.
        payloads: optional per-input payloads (repair passes re-send
            the same payloads).
        policy: retry bounds/backoff (default :class:`RetryPolicy`).
        budget: optional
            :class:`~repro.resilience.budget.DeadlineBudget` — repair
            passes stop (and the remaining terminals are accounted
            lost with ``deadline_expired=True``) once it is spent, and
            backoff sleeps are clamped so they never out-live it.
        breaker: optional
            :class:`~repro.resilience.breaker.CircuitBreaker` — an
            open breaker stops further repair passes immediately
            (``short_circuited=True``) instead of burning the retry
            budget against a known-bad plane.

    Returns:
        A :class:`DegradedResult`; ``result.ok`` is True when every
        terminal was eventually delivered.
    """
    policy = policy if policy is not None else RetryPolicy()
    observer = getattr(network, "observer", None)
    injector = getattr(network, "_injector", None)
    inverse = assignment.inverse_map()
    terminals = sorted(inverse)

    if injector is not None:
        injector.attempt = 0
    try:
        result = network.route(assignment, mode=mode, payloads=payloads)
        outcome = DegradedResult(
            assignment=assignment,
            outputs=[None] * assignment.n,
            outcomes={},
            attempts=1,
            engine=getattr(result, "engine", "reference"),
            total_splits=result.total_splits,
            switch_ops=result.switch_ops,
            plan_cache_hits=result.plan_cache_hits,
            plan_cache_misses=result.plan_cache_misses,
        )
        failed: List[int] = []
        for o in terminals:
            if _correct(result.outputs[o], inverse[o]):
                outcome.outputs[o] = result.outputs[o]
                outcome.outcomes[o] = TerminalOutcome(
                    output=o, source=inverse[o], status="delivered", attempts=1
                )
            else:
                failed.append(o)

        retry = 0
        while failed and retry < policy.max_retries:
            if budget is not None and budget.expired:
                outcome.deadline_expired = True
                emit(observer, "faults.healing", "deadline_expired")
                break
            if breaker is not None and breaker.is_open:
                outcome.short_circuited = True
                break
            retry += 1
            outcome.attempts += 1
            emit(observer, "faults.healing", "detected", attempt=retry - 1,
                 terminals=tuple(failed))
            delay = policy.delay(retry)
            if budget is not None:
                delay = budget.clamp(delay)
            if delay > 0:
                time.sleep(delay)
            emit(observer, "faults.healing", "retry", attempt=retry,
                 terminals=tuple(failed))
            repair_map: Dict[int, List[int]] = {}
            for o in failed:
                repair_map.setdefault(inverse[o], []).append(o)
            repair = MulticastAssignment.from_dict(assignment.n, repair_map)
            if injector is not None:
                injector.attempt = retry
            repaired = network.route(repair, mode=mode, payloads=payloads)
            outcome.total_splits += repaired.total_splits
            outcome.switch_ops += repaired.switch_ops
            outcome.plan_cache_hits += repaired.plan_cache_hits
            outcome.plan_cache_misses += repaired.plan_cache_misses
            still_failed: List[int] = []
            healed: List[int] = []
            for o in failed:
                if _correct(repaired.outputs[o], inverse[o]):
                    outcome.outputs[o] = repaired.outputs[o]
                    outcome.outcomes[o] = TerminalOutcome(
                        output=o,
                        source=inverse[o],
                        status="recovered",
                        attempts=retry + 1,
                    )
                    healed.append(o)
                else:
                    still_failed.append(o)
            if healed:
                emit(observer, "faults.healing", "recovered", attempt=retry,
                     terminals=tuple(healed))
            failed = still_failed

        for o in failed:
            outcome.outcomes[o] = TerminalOutcome(
                output=o,
                source=inverse[o],
                status="lost",
                attempts=outcome.attempts,
            )
        if failed:
            emit(observer, "faults.healing", "lost",
                 attempt=outcome.attempts - 1, terminals=tuple(failed))
    finally:
        if injector is not None:
            injector.attempt = 0

    outcome.verification = verify_delivery(assignment, outcome.outputs)
    return outcome
