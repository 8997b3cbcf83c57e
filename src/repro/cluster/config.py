"""Declarative configuration of a multi-replica fabric cluster.

A :class:`ClusterConfig` composes with the per-replica
:class:`~repro.core.config.NetworkConfig`: the cluster tier decides *how
many* fabrics serve and *which one* gets each frame, while everything
about how a single replica routes — engine, fault plan, admission,
control — stays on the network config it already lives on.  Every replica is built from the **same** network config, which is
what makes cluster routing bit-identical to a single fabric: routing is
a pure function of (config, assignment), so it cannot matter which
replica serves a frame.

One deliberate restriction: ``network.snapshot_path`` must be unset.
Snapshot persistence is a *cluster* concern here — K replicas sharing
one path would clobber each other, and
:class:`~repro.cluster.restart.RollingRestart` captures/restores
snapshots itself at drain time (``snapshot_dir`` names where they go).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..core.config import NetworkConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Frozen description of a fabric cluster.

    Attributes:
        replicas: number of independent fabric replicas (>= 1).
        network: the per-replica :class:`~repro.core.config.NetworkConfig`
            (identical for every replica; its ``snapshot_path`` must be
            ``None`` — the cluster manages snapshots).
        placement_seed: seed mixed into the rendezvous placement hash,
            so distinct clusters spread the same workload differently
            while each cluster stays replay-deterministic.
        spill_over: when True (default), a frame shed by its home
            replica's admission gate is offered to the remaining
            candidates in placement order before being shed
            cluster-wide.
        drain_frames: rolling-restart drain window — cluster
            submissions a DRAINING replica waits (receiving no new
            placements) before its snapshot/swap completes.
        snapshot_dir: directory where rolling restarts persist each
            replica's :class:`~repro.resilience.snapshot.FabricSnapshot`
            (``None``: snapshots are handed over in memory only).
    """

    replicas: int
    network: NetworkConfig
    placement_seed: int = 0
    spill_over: bool = True
    drain_frames: int = 4
    snapshot_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.replicas, int) or isinstance(
            self.replicas, bool
        ):
            raise TypeError(
                f"replicas must be an int, got {type(self.replicas).__name__}"
            )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not isinstance(self.network, NetworkConfig):
            raise TypeError(
                "network must be a NetworkConfig, got "
                f"{type(self.network).__name__}"
            )
        if self.network.snapshot_path is not None:
            raise ValueError(
                "network.snapshot_path must be None in a cluster: rolling "
                "restarts manage snapshots (set ClusterConfig.snapshot_dir "
                "to persist them)"
            )
        if not isinstance(self.placement_seed, int) or isinstance(
            self.placement_seed, bool
        ):
            raise TypeError(
                "placement_seed must be an int, got "
                f"{type(self.placement_seed).__name__}"
            )
        if not isinstance(self.drain_frames, int) or isinstance(
            self.drain_frames, bool
        ):
            raise TypeError(
                "drain_frames must be an int, got "
                f"{type(self.drain_frames).__name__}"
            )
        if self.drain_frames < 0:
            raise ValueError(
                f"drain_frames must be >= 0, got {self.drain_frames}"
            )

    def derive(self, **overrides) -> "ClusterConfig":
        """A copy with ``overrides`` applied (and re-validated)."""
        return dataclasses.replace(self, **overrides)
