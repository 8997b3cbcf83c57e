"""One cluster member: a fabric plus its serving lifecycle.

A :class:`FabricReplica` wraps a
:class:`~repro.core.fabric.MulticastFabric` with the state machine the
cluster tier routes around::

    UP --(drain)--> DRAINING --(restart)--> UP     (generation + 1)
    UP / DRAINING --(kill)--> DOWN --(restart)--> UP

``UP`` replicas take new placements; ``DRAINING`` replicas take no new
placements but are still alive (a cluster whose every replica is
draining falls back to them rather than refusing traffic); ``DOWN``
replicas serve nothing — a frame placed on a replica that goes down
before service is requeued to a sibling by the cluster.

The replica also carries the *impairment* signal the router uses for
health-aware balancing: a replica whose circuit breaker is open or
whose :class:`~repro.faults.health.HealthTracker` has quarantined the
primary plane still serves (on its standby plane), but new placements
prefer unimpaired siblings.
"""

from __future__ import annotations

import enum

from ..core.fabric import MulticastFabric
from ..errors import ReproError
from ..resilience.gate import ShedFrame

__all__ = ["FabricReplica", "ReplicaDownError", "ReplicaState"]


def is_shed(result) -> bool:
    """True for an admission-gate :class:`~repro.resilience.gate.ShedFrame`.

    A type test, not ``result.ok`` — a lost-terminal
    :class:`~repro.faults.healing.DegradedResult` is also falsy on
    ``ok`` but *was served* (fault losses are accounted, not retried on
    a sibling: the siblings share the same fault plan).
    """
    return isinstance(result, ShedFrame)


class ReplicaDownError(ReproError, RuntimeError):
    """Raised when a frame is submitted to a DOWN replica."""


class ReplicaState(str, enum.Enum):
    """Serving lifecycle of one replica."""

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class FabricReplica:
    """A :class:`~repro.core.fabric.MulticastFabric` with a lifecycle.

    Args:
        index: stable replica id within the cluster (survives
            restarts — the *fabric* is replaced, the replica is not).
        config: the replica's
            :class:`~repro.core.config.NetworkConfig`; every restart
            rebuilds the fabric from this same config.
        mode: routing mode passed to the fabric.
        strict: verification strictness passed to the fabric.
        retry_policy: optional
            :class:`~repro.faults.healing.RetryPolicy` for fault-aware
            fabrics (stateless config, safe to share across replicas).
        health_factory: optional zero-argument callable returning a
            fresh :class:`~repro.faults.health.HealthTracker` per
            fabric build — health state is *per replica*, so a shared
            tracker instance would corrupt the state machines; a
            factory lets callers pin thresholds fleet-wide.
    """

    def __init__(
        self,
        index: int,
        config,
        mode="selfrouting",
        strict=True,
        retry_policy=None,
        health_factory=None,
    ):
        self.index = index
        self.config = config
        self.mode = mode
        self.strict = strict
        self.retry_policy = retry_policy
        self.health_factory = health_factory
        self.fabric = self._build()
        self.state = ReplicaState.UP
        self.generation = 0
        self.frames_served = 0

    def _build(self) -> MulticastFabric:
        return MulticastFabric(
            self.config,
            mode=self.mode,
            strict=self.strict,
            retry_policy=self.retry_policy,
            health=(
                self.health_factory()
                if self.health_factory is not None
                else None
            ),
        )

    # -- routing-facing signals ----------------------------------------
    @property
    def serving(self) -> bool:
        """True when the replica accepts new placements."""
        return self.state is ReplicaState.UP

    @property
    def alive(self) -> bool:
        """True when the replica can still serve a frame at all."""
        return self.state is not ReplicaState.DOWN

    @property
    def impaired(self) -> bool:
        """True when the router should deprioritize this replica.

        An open circuit breaker or a quarantined primary plane means
        the replica is serving degraded (standby plane, short-circuited
        primary); it remains a valid target but loses placement
        priority to unimpaired siblings.
        """
        fabric = self.fabric
        breaker = getattr(fabric, "breaker", None)
        if breaker is not None and breaker.is_open:
            return True
        health = fabric.health
        return health is not None and not health.use_primary

    # -- serving -------------------------------------------------------
    def submit(self, assignment, priority: int = 0):
        """Route one frame on this replica's fabric."""
        if self.state is ReplicaState.DOWN:
            raise ReplicaDownError(
                f"replica {self.index} is down (generation "
                f"{self.generation})"
            )
        result = self.fabric.submit(assignment, priority=priority)
        if not is_shed(result):
            self.frames_served += 1
        return result

    # -- lifecycle -----------------------------------------------------
    def drain(self) -> None:
        """Stop taking new placements; keep serving what arrives."""
        if self.state is ReplicaState.UP:
            self.state = ReplicaState.DRAINING

    def kill(self) -> None:
        """Crash the replica: no snapshot, fabric closed, state DOWN.

        Idempotent.  The wrapped fabric never carries a
        ``snapshot_path`` (:class:`~repro.cluster.config.ClusterConfig`
        forbids it), so closing here persists nothing — a kill is a
        crash, not a graceful handover.
        """
        if self.state is ReplicaState.DOWN:
            return
        self.state = ReplicaState.DOWN
        self.fabric.close()

    def snapshot(self):
        """Capture the fabric's warm-restart
        :class:`~repro.resilience.snapshot.FabricSnapshot`."""
        return self.fabric.snapshot()

    def restart(self, snapshot=None) -> int:
        """Replace the fabric with a fresh one (warm when given a
        snapshot); the replica re-enters UP with ``generation + 1``.

        Returns the number of plans warmed (0 on a cold restart).
        """
        if self.state is not ReplicaState.DOWN:
            self.fabric.close()
        self.fabric = self._build()
        warmed = 0
        if snapshot is not None:
            warmed = snapshot.restore(self.fabric)
        self.state = ReplicaState.UP
        self.generation += 1
        return warmed

    def close(self) -> None:
        """Release the fabric's resources (idempotent; state unchanged
        unless the replica was serving, in which case it goes DOWN)."""
        if self.state is ReplicaState.DOWN:
            return
        self.state = ReplicaState.DOWN
        self.fabric.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricReplica(index={self.index}, state={self.state.value}, "
            f"generation={self.generation}, served={self.frames_served})"
        )
