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
health-aware balancing: a replica whose
:class:`~repro.faults.health.HealthTracker` has taken the primary plane
out of service still serves (on its standby plane), but new placements
prefer unimpaired siblings.
"""

from __future__ import annotations

import enum

from ..core.fabric import MulticastFabric
from ..errors import ReproError

__all__ = ["FabricReplica", "ReplicaDownError", "ReplicaState"]

#: The ``FabricStats`` counters a replica sums over every fabric it ran.
CARRIED = ("frames", "deliveries", "degraded_frames", "lost_frames",
           "lost_terminals", "recovered_terminals", "plan_cache_hits",
           "plan_cache_misses")


class ReplicaDownError(ReproError, RuntimeError):
    """Raised when a frame is submitted to a DOWN replica."""


class ReplicaState(str, enum.Enum):
    """Serving lifecycle of one replica."""

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


# A module global reads in a fraction of an enum class attribute's
# time, and ``submit`` tests it on every frame.
_DOWN = ReplicaState.DOWN


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
        on_change: optional zero-argument callable, called after every
            change of the replica's state and of its fabric's plane
            health (the cluster passes its placement epoch's ``bump``).
    """

    def __init__(
        self,
        index: int,
        config,
        mode="selfrouting",
        strict=True,
        retry_policy=None,
        health_factory=None,
        on_change=None,
    ):
        self.index = index
        self.config = config
        self.mode = mode
        self.strict = strict
        self.retry_policy = retry_policy
        self.health_factory = health_factory
        self.on_change = on_change
        self.fabric = self._build()
        self.state = ReplicaState.UP
        self.generation = 0
        # CARRIED counters of the fabrics that restarts replaced.
        self._carried = dict.fromkeys(CARRIED, 0)

    def _build(self) -> MulticastFabric:
        fabric = MulticastFabric(
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
        fabric.on_health_change = self.on_change
        return fabric

    def _set_state(self, state: ReplicaState) -> None:
        self.state = state
        if self.on_change is not None:
            self.on_change()

    def total(self, name: str) -> int:
        """One of the :data:`CARRIED` counters, summed over every
        fabric this replica has run."""
        return self._carried[name] + getattr(self.fabric.stats, name)

    @property
    def frames_served(self) -> int:
        """Frames this replica has routed, across restarts."""
        return self.total("frames")

    # -- routing-facing signals ----------------------------------------
    @property
    def serving(self) -> bool:
        """True when the replica accepts new placements."""
        return self.state is ReplicaState.UP

    @property
    def alive(self) -> bool:
        """True when the replica can still serve a frame at all."""
        return self.state is not _DOWN

    @property
    def impaired(self) -> bool:
        """True when the router should deprioritize this replica.

        A quarantined primary plane means the replica is serving
        degraded (on its standby plane); it remains a valid target but
        loses placement priority to unimpaired siblings.
        """
        health = self.fabric.health
        return health is not None and not health.use_primary

    # -- serving -------------------------------------------------------
    def submit(self, assignment, priority: int = 0):
        """Route one frame on this replica's fabric."""
        if self.state is _DOWN:
            raise ReplicaDownError(
                f"replica {self.index} is down (generation "
                f"{self.generation})"
            )
        return self.fabric.submit(assignment, priority)

    # -- lifecycle -----------------------------------------------------
    def drain(self) -> None:
        """Stop taking new placements; keep serving what arrives."""
        if self.state is ReplicaState.UP:
            self._set_state(ReplicaState.DRAINING)

    def kill(self) -> None:
        """Crash the replica: no snapshot, fabric closed, state DOWN.

        Idempotent.  The wrapped fabric never carries a
        ``snapshot_path`` (:class:`~repro.cluster.config.ClusterConfig`
        forbids it), so closing here persists nothing — a kill is a
        crash, not a graceful handover.
        """
        if self.state is ReplicaState.DOWN:
            return
        self._set_state(ReplicaState.DOWN)
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
        for name in CARRIED:
            self._carried[name] += getattr(self.fabric.stats, name)
        self.fabric = self._build()
        warmed = 0
        if snapshot is not None:
            warmed = snapshot.restore(self.fabric)
        self.generation += 1
        self._set_state(ReplicaState.UP)
        return warmed

    def close(self) -> None:
        """Release the fabric's resources (idempotent; state unchanged
        unless the replica was serving, in which case it goes DOWN)."""
        if self.state is ReplicaState.DOWN:
            return
        self._set_state(ReplicaState.DOWN)
        self.fabric.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricReplica(index={self.index}, state={self.state.value}, "
            f"generation={self.generation}, served={self.frames_served})"
        )
