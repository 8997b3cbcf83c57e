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
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from operator import attrgetter
from typing import List, Sequence, Tuple

from .replica import FabricReplica, ReplicaState

__all__ = ["ClusterRouter"]

_index = attrgetter("index")


class ClusterRouter:
    """Deterministic rendezvous placement with health-aware ordering.

    The rendezvous rank of a fingerprint depends only on the seed, the
    replica indices and the fingerprint — a replica keeps its index
    across kills and restarts — so it is computed once per fingerprint
    and memoised in an LRU of at most ``capacity`` entries.  Each frame
    then only filters the memoised rank by replica state and moves
    impaired replicas to the back, both read live.  Nothing needs
    invalidating.

    Args:
        seed: mixed into every placement weight; two routers with the
            same seed produce identical placements.
        capacity: most fingerprints whose rank is memoised.  A cluster
            sizes it ``replicas × plan_cache_size``: a fingerprint
            beyond that is cached on no replica and compiles anyway.
    """

    def __init__(self, seed: int = 0, capacity: int = 1024):
        self.seed = seed
        self.capacity = capacity
        # fingerprint -> (replica indices, positions ranked best first)
        self._ranks: "OrderedDict[str, Tuple[tuple, tuple]]" = OrderedDict()

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

    def order(
        self, fingerprint: str, replicas: Sequence[FabricReplica]
    ) -> List[FabricReplica]:
        """Candidate replicas for one frame, best first.

        UP replicas in rendezvous order, unimpaired before impaired;
        when no replica is UP, the DRAINING ones (same ordering) so a
        fully-draining cluster still serves.  DOWN replicas are never
        returned.  Empty means the cluster has no alive replica.
        """
        indices = tuple(map(_index, replicas))
        ranks = self._ranks
        memo = ranks.get(fingerprint)
        if memo is not None and memo[0] == indices:
            ranks.move_to_end(fingerprint)
        else:
            memo = indices, self._rank(fingerprint, indices)
            ranks.pop(fingerprint, None)
            ranks[fingerprint] = memo
            if len(ranks) > self.capacity:
                ranks.popitem(last=False)
        ranked = [replicas[p] for p in memo[1]]
        pool = [r for r in ranked if r.state is ReplicaState.UP] or [
            r for r in ranked if r.state is ReplicaState.DRAINING
        ]
        healthy, impaired = [], []
        for r in pool:
            (impaired if r.impaired else healthy).append(r)
        return healthy + impaired
