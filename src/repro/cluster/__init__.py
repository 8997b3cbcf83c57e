"""Multi-replica serving tier over independent fabrics.

The cluster layer scales the library *out* where everything below it
scales *up*: K independent
:class:`~repro.core.fabric.MulticastFabric` replicas behind one
deterministic facade, with plan-affinity placement (rendezvous hashing
on assignment fingerprints keeps repeated assignments on the replica
that already compiled their plan), health-aware failover (a quarantined
primary deprioritizes a replica; a killed replica's
in-flight frame requeues exactly once to a sibling, bit-identically),
and zero-loss rolling restarts (drain, snapshot, warm-restore a
successor, re-admit — all on the frame clock, so seeded campaigns
replay exactly).  See ``docs/cluster.md``.
"""

from .cluster import ClusterStats, ClusterUnavailableError, FabricCluster
from .config import ClusterConfig
from .replica import FabricReplica, ReplicaDownError, ReplicaState
from .restart import RollingRestart
from .router import ClusterRouter

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterStats",
    "ClusterUnavailableError",
    "FabricCluster",
    "FabricReplica",
    "ReplicaDownError",
    "ReplicaState",
    "RollingRestart",
]
