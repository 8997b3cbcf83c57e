"""Zero-loss rolling restarts, driven by the cluster's frame clock.

A :class:`RollingRestart` cycles each replica through::

    drain (no new placements) --> snapshot --> swap in a fresh fabric
        --> warm-restore --> re-admit (UP, generation + 1)

Everything is keyed to the cluster's frame counter, not wall time, so a
seeded campaign replays exactly: the drain starts when frame ``t`` is
submitted, and the snapshot/swap/restore happens *between* frames
``t + drain_frames - 1`` and ``t + drain_frames``.  Because a DRAINING
replica takes no new placements and the swap is frame-synchronous,
no admitted frame is ever in flight on a replica being swapped — which
is why a rolling restart loses zero frames by construction, and the
property tests can demand exact accounting rather than a loss bound.

The successor fabric warm-restores from the drained replica's
:class:`~repro.resilience.snapshot.FabricSnapshot` (persisted under
``snapshot_dir`` when configured), so the plan cache — the thing the
plan-affinity router works to keep hot — survives the restart.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..obs.events import emit
from .replica import ReplicaState

__all__ = ["RollingRestart"]


class RollingRestart:
    """A frame-scheduled restart campaign over a cluster's replicas.

    Args:
        cluster: the :class:`~repro.cluster.cluster.FabricCluster`
            whose ``submit`` clock drives the campaign (attach via
            :meth:`FabricCluster.rolling_restart`).
        drain_frames: cluster submissions between a replica's drain and
            its swap (default: the cluster config's).
        snapshot_dir: persist each drained replica's snapshot as
            ``replica-<i>.json`` here (default: the cluster config's;
            ``None`` hands the snapshot over in memory only).
    """

    def __init__(self, cluster, drain_frames=None, snapshot_dir=None):
        self.cluster = cluster
        self.drain_frames = (
            cluster.config.drain_frames
            if drain_frames is None
            else drain_frames
        )
        if self.drain_frames < 0:
            raise ValueError(
                f"drain_frames must be >= 0, got {self.drain_frames}"
            )
        self.snapshot_dir = (
            cluster.config.snapshot_dir
            if snapshot_dir is None
            else snapshot_dir
        )
        self._begin: Dict[int, List[int]] = {}
        self._finish: Dict[int, List[int]] = {}
        self.completed: List[int] = []

    def schedule(self, replica: int, at_frame: int) -> None:
        """Drain replica ``replica`` when frame ``at_frame`` arrives;
        swap/restore ``drain_frames`` submissions later."""
        if not 0 <= replica < len(self.cluster.replicas):
            raise ValueError(
                f"replica index {replica} out of range "
                f"[0, {len(self.cluster.replicas)})"
            )
        if at_frame < self.cluster.frame_index:
            raise ValueError(
                f"cannot schedule a restart at frame {at_frame}: the "
                f"cluster is already at frame {self.cluster.frame_index}"
            )
        self._begin.setdefault(at_frame, []).append(replica)

    def plan_campaign(self, total_frames: int) -> None:
        """Spread one restart per replica evenly across a campaign of
        ``total_frames`` submissions (replica ``i`` drains at frame
        ``(i + 1) * total_frames // (K + 1)``)."""
        count = len(self.cluster.replicas)
        for i in range(count):
            self.schedule(i, (i + 1) * total_frames // (count + 1))

    def advance(self, index: int) -> None:
        """Advance the campaign to cluster frame ``index`` (called by
        :meth:`FabricCluster.submit` before placement)."""
        for rid in self._begin.pop(index, ()):
            self._start(rid, index)
        for rid in self._finish.pop(index, ()):
            self._complete(rid)

    def flush(self) -> None:
        """Finish every pending cycle now (campaign over: nothing may
        be left draining)."""
        pending: List[int] = []
        for index in sorted(self._begin):
            for rid in self._begin[index]:
                if self._drain(rid):
                    pending.append(rid)
        self._begin.clear()
        for index in sorted(self._finish):
            pending.extend(self._finish[index])
        self._finish.clear()
        for rid in pending:
            self._complete(rid)

    @property
    def pending(self) -> int:
        """Cycles not yet completed."""
        return sum(len(v) for v in self._begin.values()) + sum(
            len(v) for v in self._finish.values()
        )

    # -- internals -----------------------------------------------------
    def _drain(self, rid: int) -> bool:
        cluster = self.cluster
        replica = cluster.replicas[rid]
        if not replica.alive:
            # Killed before its restart slot: the cycle still runs, as
            # a cold restart (there is no fabric left to snapshot).
            return True
        replica.drain()
        emit(cluster.observer, "cluster", "drain", replica=rid)
        emit(cluster.observer, "cluster", "state", replica=rid,
             state=replica.state.value, up=cluster.up_count)
        return True

    def _start(self, rid: int, index: int) -> None:
        if self._drain(rid):
            self._finish.setdefault(
                index + self.drain_frames, []
            ).append(rid)

    def _complete(self, rid: int) -> None:
        cluster = self.cluster
        replica = cluster.replicas[rid]
        snap = None
        if replica.state is not ReplicaState.DOWN:
            snap = replica.snapshot()
            emit(cluster.observer, "cluster", "snapshot", replica=rid,
                 plans=len(snap.assignments))
            if self.snapshot_dir is not None:
                snap.save(
                    os.path.join(self.snapshot_dir, f"replica-{rid}.json")
                )
        warmed = replica.restart(snap)
        cluster.stats.restarts += 1
        emit(cluster.observer, "cluster", "restore", replica=rid,
             plans=warmed)
        emit(cluster.observer, "cluster", "readmit", replica=rid)
        emit(cluster.observer, "cluster", "state", replica=rid,
             state=replica.state.value, up=cluster.up_count)
        self.completed.append(rid)
