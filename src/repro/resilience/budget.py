"""Deadline budgets: one wall-clock allowance per serving attempt.

A frame submitted under overload must be *accounted, never hung*: the
healing loop's retries and the queueing simulator's in-slot repairs
all need to stop when the caller's
latency allowance is spent.  :class:`DeadlineBudget` is the single
object carried down those paths — started once at submission, consulted
(``expired`` / ``remaining_s``) at every blocking point, and used to
clamp backoff sleeps so a retry never sleeps past the deadline.

A budget with ``deadline_ms=None`` is unlimited: ``expired`` is always
False and every clamp is the identity, so call sites thread the budget
unconditionally and pay one attribute test when deadlines are off.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """A monotonic-clock wall-time allowance for one serving attempt.

    Args:
        deadline_ms: total allowance in milliseconds; ``None`` means
            unlimited (the budget never expires).
        clock: seconds-returning monotonic clock (injectable for
            deterministic tests; default :func:`time.monotonic`).

    The budget starts at construction.  It is intentionally not
    reusable across frames — each submission constructs its own, so a
    slow frame can never eat a later frame's allowance.
    """

    __slots__ = ("deadline_s", "_clock", "_start")

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        self.deadline_s = None if deadline_ms is None else deadline_ms / 1000.0
        self._clock = clock
        self._start = clock()

    @property
    def unlimited(self) -> bool:
        """True when the budget can never expire."""
        return self.deadline_s is None

    @property
    def elapsed_s(self) -> float:
        """Seconds since the budget started."""
        return self._clock() - self._start

    @property
    def remaining_s(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at 0.0)."""
        if self.deadline_s is None:
            return math.inf
        return max(0.0, self.deadline_s - self.elapsed_s)

    @property
    def expired(self) -> bool:
        """True once the allowance is spent (never, when unlimited)."""
        return self.deadline_s is not None and self.remaining_s <= 0.0

    def clamp(self, delay_s: float) -> float:
        """``delay_s`` shortened so sleeping it cannot out-live the
        budget; the identity on an unlimited budget."""
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        if self.deadline_s is None:
            return delay_s
        return min(delay_s, self.remaining_s)

    def __repr__(self) -> str:
        if self.deadline_s is None:
            return "DeadlineBudget(unlimited)"
        return (
            f"DeadlineBudget(deadline_s={self.deadline_s}, "
            f"remaining_s={self.remaining_s:.6f})"
        )
