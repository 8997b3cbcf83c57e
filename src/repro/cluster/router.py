"""Plan-affinity placement: rendezvous hashing over replicas.

The cluster's win condition is keeping the *cluster-wide* plan-cache
hit rate near single-fabric levels: a repeated assignment must land on
the replica that already compiled its
:class:`~repro.core.fastplan.FramePlan`.  :class:`ClusterRouter` does
this with rendezvous (highest-random-weight) hashing keyed on the
assignment's content fingerprint
(:func:`~repro.core.multicast.assignment_fingerprint`):

* every (fingerprint, replica) pair hashes to a weight; the frame's
  candidate order is the replicas sorted by descending weight,
* the same fingerprint always produces the same order (placement is a
  pure function of fingerprint, seed and the replica id set), so
  repeated assignments stick to their home replica,
* removing a replica only re-homes the fingerprints whose top choice
  it was — every other assignment keeps its warm cache (the classic
  rendezvous minimal-disruption property),
* a ``seed`` is mixed into every weight so distinct clusters spread
  the same workload differently, deterministically.

Health-aware balancing is layered on top: serving (UP) replicas are
partitioned into unimpaired and impaired (quarantined primary), each
partition keeps rendezvous order, and impaired replicas go to the
back.  DOWN replicas never appear; DRAINING replicas are
offered only when nothing else serves (they are alive — refusing
traffic during a single-replica rolling restart would lose frames).
The resulting order is memoised per fingerprint and
:class:`PlacementEpoch`: a warm frame whose replicas have not changed
since its last placement reuses it as is.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import List, Sequence

from .replica import FabricReplica, ReplicaState

__all__ = ["ClusterRouter", "PlacementEpoch"]


class PlacementEpoch:
    """A counter bumped on every change of replica state or plane
    health.  It refers to nothing, so the replicas and fabrics holding
    its ``bump`` make no reference cycle with the router."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self) -> None:
        self.value += 1


class ClusterRouter:
    """Deterministic rendezvous placement with health-aware ordering.

    The rendezvous rank of a fingerprint depends only on the seed, the
    replica indices and the fingerprint — a replica keeps its index
    across kills and restarts — so it is computed once per fingerprint
    and replica indices.  The placement order (the rank filtered
    by replica state, impaired replicas moved to the back) is kept
    beside it with the replica list and the :attr:`epoch` it was built
    for, and served as is while both still hold.  Both live in an LRU
    of at most ``capacity`` fingerprints.

    Args:
        seed: mixed into every placement weight; two routers with the
            same seed produce identical placements.
        capacity: most fingerprints whose rank is memoised.  A cluster
            sizes it ``replicas × plan_cache_size``: a fingerprint
            beyond that is cached on no replica and compiles anyway.

    Attributes:
        epoch: the :class:`PlacementEpoch` to bump whenever a replica
            passed to :meth:`order` changes ``state`` or ``impaired``
            (a cluster builds its replicas with
            ``on_change=epoch.bump``).
    """

    def __init__(self, seed: int = 0, capacity: int = 1024):
        self.seed = seed
        self.capacity = capacity
        self.epoch = PlacementEpoch()
        # fingerprint -> [replica list, replica indices, rank (positions
        #                 into them, best first), epoch, placement order]
        self._ranks: "OrderedDict[str, list]" = OrderedDict()

    def weight(self, fingerprint: str, replica_index: int) -> str:
        """The rendezvous weight of one (assignment, replica) pair.

        A hex sha256 digest — compared lexicographically, which is
        exactly comparing the 256-bit integers, so ordering is
        deterministic across platforms and Python hash randomization.
        """
        key = f"{self.seed}:{replica_index}:{fingerprint}"
        return hashlib.sha256(key.encode("ascii")).hexdigest()

    def _rank(self, fingerprint: str, indices: Sequence[int]) -> tuple:
        """Positions into ``indices``, best first: descending
        ``(weight, index)``, the full rendezvous order."""
        return tuple(
            sorted(
                range(len(indices)),
                key=lambda p: (self.weight(fingerprint, indices[p]), indices[p]),
                reverse=True,
            )
        )

    @staticmethod
    def _place(ranked: List[FabricReplica]) -> List[FabricReplica]:
        """UP replicas of ``ranked`` (DRAINING when none is UP),
        unimpaired before impaired, each part in rank order."""
        pool = [r for r in ranked if r.state is ReplicaState.UP] or [
            r for r in ranked if r.state is ReplicaState.DRAINING
        ]
        healthy, impaired = [], []
        for r in pool:
            (impaired if r.impaired else healthy).append(r)
        return healthy + impaired

    def order(
        self, fingerprint: str, replicas: Sequence[FabricReplica]
    ) -> List[FabricReplica]:
        """Candidate replicas for one frame, best first.

        UP replicas in rendezvous order, unimpaired before impaired;
        when no replica is UP, the DRAINING ones (same ordering) so a
        fully-draining cluster still serves.  DOWN replicas are never
        returned.  Empty means the cluster has no alive replica.
        """
        ranks = self._ranks
        memo = ranks.get(fingerprint)
        epoch = self.epoch.value
        if memo is not None and memo[0] is replicas and memo[3] == epoch:
            ranks.move_to_end(fingerprint)
            return list(memo[4])
        indices = tuple(r.index for r in replicas)
        if memo is not None and memo[1] == indices:
            ranks.move_to_end(fingerprint)
        else:
            memo = [None, indices, self._rank(fingerprint, indices)]
            ranks.pop(fingerprint, None)
            ranks[fingerprint] = memo
            if len(ranks) > self.capacity:
                ranks.popitem(last=False)
        memo[0] = replicas
        memo[3:] = epoch, self._place([replicas[p] for p in memo[2]])
        return list(memo[4])
