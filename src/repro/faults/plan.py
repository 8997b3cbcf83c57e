"""Deterministic, seedable fault plans for the BRSMN fault planes.

The nonblocking guarantee of the paper (Theorem 2) is proved for a
network of perfect 2x2 switches.  This module describes the ways a
deployed network deviates from that ideal, as data: a
:class:`FaultPlan` is an immutable, seedable description of *where* the
fabric is broken and *how*, shared verbatim by both routing engines so
that fault behaviour is bit-identical between the per-switch reference
simulation and the compiled fast path.

Fault geometry — the fault planes
---------------------------------

An ``n x n`` BRSMN has ``m = log2(n)`` recursion levels (level 1 = the
full-size BSN, level ``m`` = the column of ``n/2`` final delivery
switches).  We model faults on *fault planes*: plane ``l`` is a column
of ``n/2`` pass-through 2x2 cells sitting on the inter-level links
right after routing level ``l`` (for ``l < m``) or on the output links
(``l = m``).  Cell ``k`` of a plane carries link positions ``2k`` and
``2k + 1`` — a pair that can never straddle a sub-network boundary,
because every BRSMN block size is even.  A healthy plane is all
``PARALLEL`` (paper Fig. 3a, ``r_i = 0``): it forwards both links
untouched and is entirely virtual.

Fault taxonomy
--------------

* ``stuck_at`` — the cell's *control* path is stuck at a fixed setting
  ``r_i`` (paper Fig. 3 semantics): ``PARALLEL`` (0) is
  indistinguishable from healthy, ``CROSS`` (1) persistently swaps the
  two link signals.
* ``dead_switch`` — the cell's *data* path is dead: the circuit still
  establishes (routing tags propagate) but every payload crossing
  either link is lost.
* ``flaky_link`` — each link independently drops its payload with
  probability ``drop_rate`` per routing attempt, sampled
  deterministically from ``(seed, level, index, attempt)`` so that a
  retry (a new attempt number) re-rolls the links but a re-run of the
  same attempt reproduces them exactly.

See ``docs/fault_model.md`` for the full model, including why inner
``stuck_at`` faults are healed by the routing mathematics itself while
delivery-plane faults are not.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from ..rbn.permutations import check_network_size

__all__ = ["FaultKind", "Fault", "FaultPlan"]


class FaultKind(str, enum.Enum):
    """The three modelled 2x2-cell failure modes (see module docstring)."""

    STUCK_AT = "stuck_at"
    DEAD_SWITCH = "dead_switch"
    FLAKY_LINK = "flaky_link"


def _attempt_rng(seed: int, level: int, index: int, attempt: int) -> random.Random:
    """A deterministic RNG for one (fault, attempt) pair.

    Hash-derived rather than ``random.Random(tuple)`` so the stream is
    stable across Python versions (``hash()`` is salted; sha256 is not).
    """
    digest = hashlib.sha256(
        f"{seed}:{level}:{index}:{attempt}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class Fault:
    """One faulty 2x2 cell on a fault plane.

    Attributes:
        kind: the failure mode (:class:`FaultKind` value).
        level: 1-based fault plane (1 .. ``log2(n)``; plane ``log2(n)``
            sits on the network outputs).
        index: cell index ``k`` on the plane; the cell carries link
            positions ``2k`` and ``2k + 1``.
        stuck_setting: ``stuck_at`` only — the forced setting ``r_i``
            (0 = parallel, i.e. silent; 1 = crossed).
        drop_rate: ``flaky_link`` only — per-link, per-attempt drop
            probability.
        seed: ``flaky_link`` only — base seed of the deterministic drop
            stream.
    """

    kind: FaultKind
    level: int
    index: int
    stuck_setting: int = 1
    drop_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.level < 1:
            raise ValueError(f"fault level must be >= 1, got {self.level}")
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")
        if self.stuck_setting not in (0, 1):
            raise ValueError(
                "stuck_setting must be 0 (parallel) or 1 (crossed), got "
                f"{self.stuck_setting} (broadcast settings cannot be stuck "
                "onto a pass-through fault plane)"
            )
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {self.drop_rate}")

    @property
    def positions(self) -> Tuple[int, int]:
        """The two absolute link positions the faulty cell carries."""
        return (2 * self.index, 2 * self.index + 1)

    def drop_mask(self, attempt: int) -> Tuple[bool, bool]:
        """Which of the cell's two links drop their payload this attempt.

        Deterministic in ``(seed, level, index, attempt)``; only
        ``flaky_link`` faults ever drop probabilistically
        (``dead_switch`` always returns ``(True, True)``, every other
        kind ``(False, False)``).
        """
        if self.kind is FaultKind.DEAD_SWITCH:
            return (True, True)
        if self.kind is not FaultKind.FLAKY_LINK:
            return (False, False)
        rng = _attempt_rng(self.seed, self.level, self.index, attempt)
        return (rng.random() < self.drop_rate, rng.random() < self.drop_rate)

    def as_dict(self) -> dict:
        """Canonical JSON-serialisable form (used by fingerprints)."""
        return {
            "kind": self.kind.value,
            "level": self.level,
            "index": self.index,
            "stuck_setting": self.stuck_setting,
            "drop_rate": self.drop_rate,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults for one ``n x n`` network.

    At most one fault may occupy a given ``(level, index)`` cell, which
    makes the per-plane application order irrelevant and the plan's
    behaviour a pure function of its contents.

    Attributes:
        n: network size the plan applies to (power of two, >= 2).
        faults: the faulty cells, kept sorted by ``(level, index)``.
    """

    n: int
    faults: Tuple[Fault, ...] = ()

    def __post_init__(self):
        m = check_network_size(self.n)
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.level, f.index))
        )
        object.__setattr__(self, "faults", ordered)
        seen = set()
        for fault in ordered:
            if fault.level > m:
                raise ValueError(
                    f"fault level {fault.level} out of range for n={self.n} "
                    f"(planes 1..{m})"
                )
            if fault.index >= self.n // 2:
                raise ValueError(
                    f"fault index {fault.index} out of range for n={self.n} "
                    f"(cells 0..{self.n // 2 - 1})"
                )
            cell = (fault.level, fault.index)
            if cell in seen:
                raise ValueError(
                    f"duplicate fault at plane {fault.level}, cell {fault.index}"
                )
            seen.add(cell)

    @classmethod
    def empty(cls, n: int) -> "FaultPlan":
        """The fault-free plan: behaviour is bit-identical to no plan."""
        return cls(n)

    @property
    def is_empty(self) -> bool:
        """True when the plan carries no faults."""
        return not self.faults

    @property
    def levels(self) -> Tuple[int, ...]:
        """The distinct fault planes occupied, ascending."""
        return tuple(sorted({f.level for f in self.faults}))

    def at_level(self, level: int) -> Tuple[Fault, ...]:
        """The faults on one plane, in cell order."""
        return tuple(f for f in self.faults if f.level == level)

    def fingerprint(self) -> str:
        """A canonical content hash, used to key cached routing plans.

        The plan is immutable, so the hash is computed on first call
        and then kept."""
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            payload = json.dumps(
                {"n": self.n, "faults": [f.as_dict() for f in self.faults]},
                sort_keys=True,
                separators=(",", ":"),
            )
            digest = hashlib.sha256(payload.encode()).hexdigest()
            self.__dict__["_fingerprint"] = digest
        return digest

    @classmethod
    def single_switch(
        cls,
        n: int,
        seed: int = 0,
        kind: Optional[FaultKind] = None,
        level: Optional[int] = None,
        index: Optional[int] = None,
        drop_rate: float = 0.5,
    ) -> "FaultPlan":
        """A seeded plan with exactly one faulty cell.

        Unspecified coordinates (kind / level / index) are drawn
        deterministically from ``seed`` — the chaos property tests sweep
        seeds to cover the fault space.
        """
        m = check_network_size(n)
        rng = random.Random(seed)
        chosen_kind = kind if kind is not None else rng.choice(list(FaultKind))
        chosen_level = level if level is not None else rng.randint(1, m)
        chosen_index = index if index is not None else rng.randrange(n // 2)
        return cls(
            n,
            (
                Fault(
                    kind=chosen_kind,
                    level=chosen_level,
                    index=chosen_index,
                    drop_rate=drop_rate,
                    seed=seed,
                ),
            ),
        )

    @classmethod
    def random(
        cls,
        n: int,
        faults: int = 2,
        seed: int = 0,
        kinds: Optional[Sequence[FaultKind]] = None,
        drop_rate: float = 0.5,
    ) -> "FaultPlan":
        """A seeded plan with ``faults`` distinct faulty cells."""
        m = check_network_size(n)
        if faults < 0:
            raise ValueError(f"faults must be >= 0, got {faults}")
        if faults > m * (n // 2):
            raise ValueError(
                f"cannot place {faults} faults on {m * (n // 2)} cells"
            )
        pool = [FaultKind(k) for k in kinds] if kinds else list(FaultKind)
        rng = random.Random(seed)
        cells = [(lvl, k) for lvl in range(1, m + 1) for k in range(n // 2)]
        chosen = rng.sample(cells, faults)
        return cls(
            n,
            tuple(
                Fault(
                    kind=rng.choice(pool),
                    level=lvl,
                    index=k,
                    drop_rate=drop_rate,
                    seed=seed,
                )
                for lvl, k in sorted(chosen)
            ),
        )
