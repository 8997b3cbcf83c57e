"""The one network-construction configuration object.

Before this module existed, ``build_network``, :class:`BRSMN`,
:class:`MulticastFabric`, ``route_multicast`` and
:class:`QueueingSimulator` each grew their own drifting combination of
``implementation=`` / ``engine=`` string kwargs — and new construction
options (an observer, a plan-cache size) would have had to be threaded
through five signatures.  :class:`NetworkConfig` replaces the combos:
every constructor accepts either a bare port count (all defaults) or
one config object.

The legacy kwarg forms were deprecated in favour of the config object
and have now been **removed** — see ``docs/migration_v1.md`` for the
old → new spellings.  Variations on a config are spelled
:meth:`NetworkConfig.derive`, which revalidates the result and names
the offending field on any error.

Example::

    from repro import MulticastFabric, NetworkConfig
    from repro.obs import MetricsObserver

    cfg = NetworkConfig(256, engine="fast", plan_cache_size=512,
                        observer=MetricsObserver())
    fabric = MulticastFabric(cfg)          # or cfg.build() for a bare network
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..rbn.permutations import check_network_size

__all__ = ["NetworkConfig"]

IMPLEMENTATIONS = ("unrolled", "feedback")
ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to construct a multicast network.

    Attributes:
        n: network size (power of two, >= 2).
        implementation: ``"unrolled"`` (full :class:`~repro.core.brsmn.BRSMN`,
            cost ``O(n log^2 n)``, single-pass) or ``"feedback"``
            (hardware-reusing :class:`~repro.core.feedback.FeedbackBRSMN`,
            cost ``O(n log n)``, ``2 log n - 1`` passes).
        engine: ``"reference"`` (per-switch simulation, traceable) or
            ``"fast"`` (compiled NumPy routing plans; unrolled only).
        plan_cache_size: fast engine — maximum compiled plans retained
            by the LRU :class:`~repro.core.fastplan.PlanCache`.
        observer: optional :class:`~repro.obs.events.Observer` receiving
            frame lifecycle events, per-level profiling spans and
            plan-cache events (unrolled implementation).
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan` —
            when given (and non-empty), the constructed network injects
            the described stuck-at / dead-switch / flaky-link faults,
            and the session facades (fabric, queueing) run the
            self-healing layer.  An empty plan is bit-identical to no
            plan.  Unrolled implementation only.
        deadline_ms: optional per-frame wall-clock budget in
            milliseconds — the session facades then carry a
            :class:`~repro.resilience.budget.DeadlineBudget` through
            healing retries, so serving stops
            (and the frame is accounted) when the budget is spent.
        admission: optional
            :class:`~repro.resilience.gate.AdmissionPolicy` — the
            session facades then run an
            :class:`~repro.resilience.gate.AdmissionGate` in front of
            the network, shedding lowest-priority frames first under
            overload.
        breaker: optional
            :class:`~repro.resilience.breaker.BreakerPolicy` — fabric
            sessions with a fault plan then run a
            :class:`~repro.resilience.breaker.CircuitBreaker` over the
            primary plane, short-circuiting it to the standby instead
            of burning retries once it trips.
        control: optional
            :class:`~repro.control.policy.ControlPolicy` — the session
            facades then run a
            :class:`~repro.control.plane.ControlPlane` that retunes
            the admission rate (AIMD) and retry backoff from the
            observed event stream, one deterministic
            tick per submission / slot.
        snapshot_path: optional filesystem path —
            :meth:`~repro.core.fabric.MulticastFabric.close` then
            writes a :class:`~repro.resilience.snapshot.FabricSnapshot`
            there, and a fabric constructed with the same path
            warm-restores from it (cached plans recompile, health and
            breaker state carry over).  A missing file is a cold
            start, not an error.
    """

    n: int
    implementation: str = "unrolled"
    engine: str = "reference"
    plan_cache_size: int = 256
    observer: Optional[object] = field(default=None, compare=False)
    fault_plan: Optional[object] = None
    deadline_ms: Optional[float] = None
    admission: Optional[object] = None
    breaker: Optional[object] = None
    control: Optional[object] = None
    snapshot_path: Optional[str] = None

    def __post_init__(self):
        check_network_size(self.n)
        if self.implementation not in IMPLEMENTATIONS:
            raise ValueError(
                f"unknown implementation {self.implementation!r} "
                f"(expected one of {IMPLEMENTATIONS})"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (expected one of {ENGINES})"
            )
        if self.implementation == "feedback" and self.engine != "reference":
            raise ValueError(
                "engine='fast' requires implementation='unrolled' "
                "(the feedback network is a hardware-reuse simulation)"
            )
        if self.plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be >= 1, got {self.plan_cache_size}"
            )
        if self.fault_plan is not None:
            # Duck-typed on purpose: importing repro.faults here would
            # create a core <-> faults import cycle.
            plan_n = getattr(self.fault_plan, "n", None)
            if plan_n != self.n:
                raise ValueError(
                    f"fault_plan is for n={plan_n}, but the config is for "
                    f"n={self.n}"
                )
            if self.implementation == "feedback":
                raise ValueError(
                    "fault injection requires implementation='unrolled' "
                    "(the feedback network time-multiplexes one physical "
                    "BSN, so it has no per-level fault planes)"
                )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0 (or None), got {self.deadline_ms}"
            )
        # Duck-typed like fault_plan: importing repro.resilience here
        # would create a core <-> resilience import cycle.
        if self.admission is not None and not hasattr(self.admission, "rate"):
            raise ValueError(
                "admission must be an AdmissionPolicy-like object "
                f"(with a 'rate'), got {type(self.admission).__name__}"
            )
        if self.breaker is not None and not hasattr(
            self.breaker, "failure_threshold"
        ):
            raise ValueError(
                "breaker must be a BreakerPolicy-like object (with a "
                f"'failure_threshold'), got {type(self.breaker).__name__}"
            )
        # Duck-typed like admission/breaker: importing repro.control
        # here would create a core <-> control import cycle.
        if self.control is not None and not hasattr(
            self.control, "tick_frames"
        ):
            raise ValueError(
                "control must be a ControlPolicy-like object (with a "
                f"'tick_frames'), got {type(self.control).__name__}"
            )
        if self.snapshot_path is not None and not isinstance(
            self.snapshot_path, str
        ):
            raise ValueError(
                "snapshot_path must be a filesystem path string (or "
                f"None), got {type(self.snapshot_path).__name__}"
            )

    def with_observer(self, observer) -> "NetworkConfig":
        """A copy of this config with a different observer attached."""
        return replace(self, observer=observer)

    def derive(self, **overrides) -> "NetworkConfig":
        """A revalidated copy of this config with fields replaced.

        The ergonomic way to vary a frozen config::

            base = NetworkConfig(256, engine="fast")
            tuned = base.derive(plan_cache_size=1024)

        Args:
            **overrides: any :class:`NetworkConfig` field.  Unknown
                names raise a :class:`ValueError` listing the valid
                fields; invalid values fail the same validation as the
                constructor, naming the offending field and range.

        Returns:
            a new frozen :class:`NetworkConfig`; ``self`` is untouched.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown NetworkConfig field(s) {', '.join(unknown)} "
                f"(valid fields: {', '.join(sorted(valid))})"
            )
        return replace(self, **overrides)

    def build(self):
        """Construct the configured network (see ``build_network``)."""
        from .routing import build_network  # local: routing imports config

        return build_network(self)


_UNSET = object()


def _resolve_config(n_or_config, *, observer=_UNSET) -> NetworkConfig:
    """Normalise ``n | NetworkConfig`` to one validated config.

    Shared by every constructor that accepts the config object.  A bare
    port count means "all defaults"; an ``observer`` kwarg overrides
    ``config.observer`` (session facades use it to splice their own
    composites in front of the caller's).
    """
    if isinstance(n_or_config, NetworkConfig):
        cfg = n_or_config
    else:
        cfg = NetworkConfig(n_or_config)
    if observer is not _UNSET and observer is not None:
        cfg = cfg.with_observer(observer)
    return cfg
