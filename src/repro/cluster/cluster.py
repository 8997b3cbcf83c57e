"""The cluster facade: K fabrics behind one deterministic ``submit``.

:class:`FabricCluster` is the serving tier the ROADMAP's "heavy
traffic" goal needs above a single
:class:`~repro.core.fabric.MulticastFabric`: K independent replicas,
plan-affinity placement (:class:`~repro.cluster.router.ClusterRouter`),
health-aware failover and zero-loss rolling restarts
(:class:`~repro.cluster.restart.RollingRestart`).

Determinism contract
--------------------

Cluster routing is **bit-identical** to routing the same frame sequence
through one fabric built from the same
:class:`~repro.core.config.NetworkConfig`: every replica is built from
that config, and routing is a pure function of (config, assignment), so
the serving replica cannot change the result.  Placement itself is a
pure function of (assignment fingerprint, placement seed, replica
states), kills and restarts are keyed to the frame counter, and the
summary carries no wall-clock fields — a seeded campaign replays to a
byte-identical summary.  With a fault plan, two kinds of *per-plane
session state* qualify the cross-replica-count contract: the
attempt-indexed ``flaky_link`` drop masks (bit-identity holds for the
attempt-independent kinds — ``stuck_at`` and ``dead_switch``), and the
:class:`~repro.faults.health.HealthTracker` quarantine machine, whose
transitions depend on which frames each replica saw (pin its
thresholds via ``health_factory`` for strict bit-identity); see
``docs/cluster.md``.

Failure semantics
-----------------

A replica killed after a frame was placed on it (a scheduled
``kill_replica(i, at_frame=f)`` lands between placement and service,
modeling an in-flight loss) has that frame **requeued exactly once** to
the next candidate in placement order.  A frame shed by its home
replica's admission gate spills over to the remaining candidates before
being shed cluster-wide.  Accounting is exact: every submitted frame
ends served (``stats.frames``) or shed (``stats.shed_frames``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.multicast import assignment_fingerprint
from ..errors import ReproError
from ..obs.events import emit
from ..resilience.gate import ShedFrame
from .config import ClusterConfig
from .replica import FabricReplica, ReplicaState
from .restart import RollingRestart
from .router import ClusterRouter

__all__ = ["ClusterStats", "ClusterUnavailableError", "FabricCluster"]


class ClusterUnavailableError(ReproError, RuntimeError):
    """Raised when no alive replica remains to serve a frame."""


def _summed(name: str) -> property:
    def total(stats) -> int:
        return sum(r.total(name) for r in stats.replicas)

    return property(total, doc=f"``{name}`` summed over the replicas.")


@dataclass
class ClusterStats:
    """Aggregate statistics of one cluster session.

    A live view: the per-frame counters are updated as frames are
    served, and the terminal and plan-cache totals are read from the
    replicas' :class:`~repro.core.fabric.FabricStats` each time they
    are accessed (each replica adds the fabrics its restarts replaced).

    Attributes:
        frames: frames served by some replica.
        deliveries: verified terminal deliveries (degraded frames count
            their delivered terminals; lost terminals are excluded).
        shed_frames: frames refused by every tried replica's admission
            gate (never routed; disjoint from ``frames``).
        requeues: frames whose home replica died in flight and were
            requeued (exactly once) to a sibling.
        spillovers: frames shed by their home replica and admitted by a
            sibling.
        degraded_frames / lost_frames / lost_terminals /
        recovered_terminals: fault-campaign accounting, summed over the
            serving replicas.
        plan_cache_hits / plan_cache_misses: cluster-wide plan cache
            traffic — the plan-affinity router's figure of merit.
        kills: replicas crashed (scheduled or immediate).
        restarts: rolling-restart cycles completed.
        per_replica: replica index -> frames served.
        replicas: the replicas the derived totals are summed over.
    """

    frames: int = 0
    shed_frames: int = 0
    requeues: int = 0
    spillovers: int = 0
    kills: int = 0
    restarts: int = 0
    per_replica: Counter = field(default_factory=Counter)
    replicas: Sequence = field(default=(), repr=False, compare=False)

    deliveries = _summed("deliveries")
    degraded_frames = _summed("degraded_frames")
    lost_frames = _summed("lost_frames")
    lost_terminals = _summed("lost_terminals")
    recovered_terminals = _summed("recovered_terminals")
    plan_cache_hits = _summed("plan_cache_hits")
    plan_cache_misses = _summed("plan_cache_misses")

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of fast-engine frames answered from a plan cache."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class FabricCluster:
    """K independent fabric replicas behind one deterministic facade.

    Args:
        config: a :class:`~repro.cluster.config.ClusterConfig`.  Every
            replica is built from ``config.network``; the observer on
            that config (e.g. a :class:`~repro.obs.MetricsObserver`)
            is shared by the replicas *and* receives the cluster's own
            ``cluster`` events (``repro_cluster_*`` metric families).
        mode: routing mode for every frame.
        strict: verification strictness (see
            :class:`~repro.core.fabric.MulticastFabric`).
        retry_policy: optional healing
            :class:`~repro.faults.healing.RetryPolicy` shared by every
            replica (stateless config).
        health_factory: optional zero-argument callable returning a
            fresh :class:`~repro.faults.health.HealthTracker` per
            fabric build, so fleet-wide health thresholds can be
            pinned without sharing mutable tracker state.

    Single-threaded: the replicas are in-process fabrics served in
    turn on the calling thread, and one thread at a time drives a
    cluster (see ``docs/architecture.md``, "Threading: one thread per
    session").
    """

    def __init__(
        self,
        config: ClusterConfig,
        mode="selfrouting",
        strict=True,
        retry_policy=None,
        health_factory=None,
    ):
        if not isinstance(config, ClusterConfig):
            raise TypeError(
                f"config must be a ClusterConfig, got {type(config).__name__}"
            )
        self.config = config
        self.n = config.network.n
        self.observer = config.network.observer
        self.router = ClusterRouter(
            config.placement_seed,
            capacity=config.replicas * config.network.plan_cache_size,
        )
        self.replicas: List[FabricReplica] = [
            FabricReplica(
                i,
                config.network,
                mode=mode,
                strict=strict,
                retry_policy=retry_policy,
                health_factory=health_factory,
                on_change=self.router.epoch.bump,
            )
            for i in range(config.replicas)
        ]
        self.stats = ClusterStats(replicas=self.replicas)
        self._frame_index = 0
        self._kills: Dict[int, List[int]] = {}
        self._restart = None
        for replica in self.replicas:
            emit(self.observer, "cluster", "state", replica=replica.index,
                 state=replica.state.value, up=self.up_count)

    @property
    def up_count(self) -> int:
        """Replicas currently accepting new placements."""
        return sum(1 for r in self.replicas if r.state is ReplicaState.UP)

    @property
    def frame_index(self) -> int:
        """Frames submitted so far (the kill/restart schedule clock)."""
        return self._frame_index

    # -- lifecycle -----------------------------------------------------
    def kill_replica(self, index: int, at_frame: Optional[int] = None):
        """Crash replica ``index`` — now, or when frame ``at_frame`` is
        in flight (between its placement and its service, so the frame
        requeues to a sibling; that is the in-flight-loss model the
        determinism tests pin down)."""
        if not 0 <= index < len(self.replicas):
            raise ValueError(
                f"replica index {index} out of range "
                f"[0, {len(self.replicas)})"
            )
        if at_frame is not None:
            if at_frame < self._frame_index:
                raise ValueError(
                    f"cannot schedule a kill at frame {at_frame}: the "
                    f"cluster is already at frame {self._frame_index}"
                )
            self._kills.setdefault(at_frame, []).append(index)
            return
        replica = self.replicas[index]
        if replica.state is ReplicaState.DOWN:
            return
        replica.kill()
        self.stats.kills += 1
        emit(self.observer, "cluster", "killed", replica=index)
        emit(self.observer, "cluster", "state", replica=index,
             state=replica.state.value, up=self.up_count)

    def rolling_restart(self, drain_frames=None, snapshot_dir=None):
        """Attach (and return) a
        :class:`~repro.cluster.restart.RollingRestart` campaign driven
        by this cluster's frame clock."""
        self._restart = RollingRestart(
            self, drain_frames=drain_frames, snapshot_dir=snapshot_dir
        )
        return self._restart

    def close(self) -> None:
        """Release every replica's resources (idempotent)."""
        for replica in self.replicas:
            replica.close()

    # -- serving -------------------------------------------------------
    def submit(self, assignment, priority: int = 0):
        """Route one frame on its home replica (placement order:
        rendezvous weight, unimpaired first), with requeue-once and
        spill-over failover.  Returns exactly what a single fabric
        would: a :class:`~repro.core.brsmn.RoutingResult`, a
        :class:`~repro.faults.healing.DegradedResult`, or a
        :class:`~repro.resilience.gate.ShedFrame` when every tried
        replica shed it."""
        idx = self._frame_index
        self._frame_index += 1
        if self._restart is not None:
            self._restart.advance(idx)
        fingerprint = assignment_fingerprint(assignment)
        order = self.router.order(fingerprint, self.replicas)
        if not order:
            raise ClusterUnavailableError(
                f"no alive replica for frame {idx}"
            )
        home = order[0]
        requeued = False
        # Scheduled kills land here — after placement, before service —
        # so the victim's in-flight frame exercises the requeue path.
        # Nothing else can take a placed replica down.
        if idx in self._kills:
            for rid in self._kills.pop(idx):
                self.kill_replica(rid)
            if not home.alive:
                siblings = [r for r in order[1:] if r.alive]
                if not siblings:
                    raise ClusterUnavailableError(
                        f"frame {idx}: home replica {home.index} died and "
                        "no sibling remains"
                    )
                home = siblings[0]
                requeued = True
        result = home.submit(assignment, priority)
        spilled = False
        # A type test, not ``result.ok``: a DegradedResult with lost
        # terminals was served (its siblings share its fault plan).
        if isinstance(result, ShedFrame):
            for candidate in order if self.config.spill_over else ():
                if candidate is not home and candidate.alive:
                    retry = candidate.submit(assignment, priority)
                    if not isinstance(retry, ShedFrame):
                        result, home, spilled = retry, candidate, True
                        break
            else:
                self.stats.shed_frames += 1
                self.stats.requeues += requeued
                emit(self.observer, "cluster", "shed", replica=home.index)
                return result
        stats = self.stats
        stats.frames += 1
        stats.per_replica[home.index] += 1
        if requeued:
            stats.requeues += 1
            emit(self.observer, "cluster", "requeued", replica=home.index)
        elif spilled:
            stats.spillovers += 1
            emit(self.observer, "cluster", "spillover", replica=home.index)
        elif self.observer is not None:
            emit(self.observer, "cluster", "submitted", replica=home.index)
        return result

    def run(self, frames: Iterable) -> ClusterStats:
        """Route a whole frame sequence; returns the session stats."""
        for assignment in frames:
            self.submit(assignment)
        return self.stats

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict:
        """A replay-deterministic campaign summary (no wall-clock
        fields; two identically-seeded campaigns produce byte-identical
        JSON)."""
        stats = self.stats
        return {
            "n": self.n,
            "replicas": len(self.replicas),
            "placement_seed": self.config.placement_seed,
            "frames": stats.frames,
            "deliveries": stats.deliveries,
            "shed": stats.shed_frames,
            "requeues": stats.requeues,
            "spillovers": stats.spillovers,
            "degraded_frames": stats.degraded_frames,
            "lost_frames": stats.lost_frames,
            "lost_terminals": stats.lost_terminals,
            "recovered_terminals": stats.recovered_terminals,
            "plan_cache_hits": stats.plan_cache_hits,
            "plan_cache_misses": stats.plan_cache_misses,
            "plan_cache_hit_rate": round(stats.plan_cache_hit_rate, 6),
            "kills": stats.kills,
            "restarts": stats.restarts,
            "up": self.up_count,
            "per_replica": {
                str(r.index): stats.per_replica.get(r.index, 0)
                for r in self.replicas
            },
            "generations": {
                str(r.index): r.generation for r in self.replicas
            },
        }
