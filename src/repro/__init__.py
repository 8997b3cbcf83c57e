"""repro — reproduction of Yang & Wang's self-routing multicast network.

This library is a from-scratch, laptop-scale reproduction of

    Yuanyuan Yang and Jianchao Wang,
    "A New Self-Routing Multicast Network", IPPS 1998
    (journal version: IEEE TPDS 10(11), 1999),

the *binary radix sorting multicast network* (BRSMN): an ``n x n``
switching network that realises every multicast assignment without
blocking, self-routed by distributed forward/backward computations over
recursively constructed reverse banyan networks.

Quick start::

    from repro import MulticastAssignment, NetworkConfig, route_multicast

    assignment = MulticastAssignment(
        8, [{0, 1}, None, {3, 4, 7}, {2}, None, None, None, {5, 6}]
    )
    result = route_multicast(8, assignment)        # raises if blocked
    print(result.delivered)                        # {output: Message}

    # Tuned construction + observability go through one config object:
    from repro.obs import MetricsObserver
    obs = MetricsObserver()
    cfg = NetworkConfig(8, engine="fast", observer=obs)
    route_multicast(cfg, assignment)
    print(obs.registry.to_prometheus_text())

This module is the *stable import surface*: the names in ``__all__``
below are the supported public API (asserted exactly by
``tests/test_public_api.py``).  Everything else — compiled-plan
internals (:mod:`repro.core.fastplan`), vectorised kernels
(:mod:`repro.rbn.fast_scatter`), per-switch simulations — is reachable
through the subpackages but considered private and free to change.

Subpackages:

* :mod:`repro.core` — the BRSMN itself (assignments, tag trees, BSN,
  BRSMN, feedback implementation, verification).
* :mod:`repro.obs` — the observability layer (metrics registry,
  lifecycle tracing, profiling spans, Prometheus/JSON export).
* :mod:`repro.faults` — fault injection (deterministic, seedable
  fault plans) and self-healing (detection, bounded retries,
  sibling-subnetwork reroute, degraded-mode results, plane health).
* :mod:`repro.resilience` — the overload-serving layer (deadline
  budgets, admission control, circuit breakers, warm-restart
  snapshots).
* :mod:`repro.control` — the adaptive control plane (sliding-window
  signal aggregation, pure AIMD/backoff controllers, a
  deterministic tick loop with a replayable decision log).
* :mod:`repro.cluster` — the multi-replica serving tier (plan-affinity
  rendezvous placement, health-aware failover, zero-loss rolling
  restarts over K independent fabrics).
* :mod:`repro.rbn` — the reverse banyan network substrate (compact
  sequences, merge lemmas, distributed self-routing algorithms).
* :mod:`repro.hardware` — gate-level substrate and the cost / depth /
  routing-time models behind the paper's Table 2.
* :mod:`repro.baselines` — crossbar, Batcher-bitonic copy+sort
  multicast, and the analytic models of the compared networks.
* :mod:`repro.workloads` — multicast workload generators (random,
  parallel-computing patterns, telecom scenarios).
* :mod:`repro.analysis` — empirical growth-rate fitting and the
  table/figure regeneration helpers.
* :mod:`repro.viz` — ASCII rendering of routing frames.
"""

from .cluster import (
    ClusterConfig,
    ClusterStats,
    FabricCluster,
    FabricReplica,
    ReplicaState,
    RollingRestart,
)
from .control import (
    ControlPlane,
    ControlPolicy,
    SignalWindow,
)
from .core import (
    BRSMN,
    BinarySplittingNetwork,
    FeedbackBRSMN,
    Message,
    MulticastAssignment,
    NetworkConfig,
    RoutingResult,
    Tag,
    TagTree,
    build_network,
    paper_example_assignment,
    route_multicast,
    route_resilient,
    verify_result,
)
from .core.arrivals import QueueingSimulator
from .core.fabric import FabricStats, MulticastFabric
from .faults import (
    DegradedResult,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from .obs import (
    CompositeObserver,
    Event,
    MetricsObserver,
    MetricsRegistry,
    NullSink,
    Observer,
    TracingObserver,
)
from .resilience import (
    AdmissionGate,
    AdmissionPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    DeadlineBudget,
    FabricSnapshot,
    ShedFrame,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionGate",
    "AdmissionPolicy",
    "BRSMN",
    "BinarySplittingNetwork",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterStats",
    "CompositeObserver",
    "ControlPlane",
    "ControlPolicy",
    "DeadlineBudget",
    "DegradedResult",
    "Event",
    "FabricCluster",
    "FabricReplica",
    "FabricSnapshot",
    "FabricStats",
    "FaultKind",
    "FaultPlan",
    "FeedbackBRSMN",
    "Message",
    "MetricsObserver",
    "MetricsRegistry",
    "MulticastAssignment",
    "MulticastFabric",
    "NetworkConfig",
    "NullSink",
    "Observer",
    "QueueingSimulator",
    "ReplicaState",
    "RetryPolicy",
    "RollingRestart",
    "RoutingResult",
    "ShedFrame",
    "SignalWindow",
    "Tag",
    "TagTree",
    "TracingObserver",
    "build_network",
    "paper_example_assignment",
    "route_multicast",
    "route_resilient",
    "verify_result",
    "__version__",
]
