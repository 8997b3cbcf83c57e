"""High-level one-call routing API.

Most users want: "give this multicast assignment to the network and
hand me the verified deliveries".  :func:`route_multicast` does exactly
that — it builds the requested network, routes, verifies (attaching the
:class:`~repro.core.verification.VerificationReport` to the result) and
raises on any violation unless ``strict=False``.

Both :func:`build_network` and :func:`route_multicast` take either a
bare port count or a :class:`~repro.core.config.NetworkConfig` — all
construction options (implementation, engine, cache sizing,
observers, fault plans, resilience and control policies) live on the
config.  The pre-v1 ``implementation=`` / ``engine=`` kwargs and the
``route_and_report`` wrapper are gone; ``docs/migration_v1.md`` maps
every old spelling to its replacement.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from ..errors import RoutingInvariantError
from ..faults import healing
from ..resilience.budget import DeadlineBudget
from .brsmn import BRSMN, RoutingResult
from .config import _resolve_config
from .feedback import FeedbackBRSMN
from .multicast import MulticastAssignment
from .verification import verify_result

__all__ = [
    "build_network",
    "route_multicast",
    "route_resilient",
]

AssignmentLike = Union[MulticastAssignment, Sequence, Mapping[int, Sequence[int]]]


def _coerce_assignment(n: int, assignment: AssignmentLike) -> MulticastAssignment:
    if isinstance(assignment, MulticastAssignment):
        return assignment
    if isinstance(assignment, Mapping):
        return MulticastAssignment.from_dict(n, assignment)
    return MulticastAssignment(n, list(assignment))


def build_network(n):
    """Construct a multicast network.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig`, or a bare
            network size (power of two, >= 2) for an all-defaults
            reference network.
    """
    cfg = _resolve_config(n)
    if cfg.implementation == "feedback":
        if cfg.observer is not None:
            raise ValueError(
                "observer hooks require implementation='unrolled' (the "
                "feedback network time-multiplexes one physical BSN)"
            )
        return FeedbackBRSMN(cfg.n)
    return BRSMN(cfg)


def route_multicast(
    n,
    assignment: AssignmentLike,
    *,
    mode: str = "selfrouting",
    payloads: Optional[Sequence] = None,
    collect_trace: bool = False,
    strict: bool = True,
) -> RoutingResult:
    """Route an assignment, verify it, and return the result.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig` or a bare
            network size.
        assignment: a :class:`MulticastAssignment`, a list of
            destination iterables, or a sparse ``{input: destinations}``
            mapping.
        mode: ``"selfrouting"`` (default — the paper's hardware
            behaviour) or ``"oracle"``.
        payloads: optional per-input payloads.
        collect_trace: record the full stage trace (reference engine
            only).
        strict: when True (default) raise on any verification
            violation; when False record the report on the result and
            return it regardless.

    Returns:
        The :class:`~repro.core.brsmn.RoutingResult`, with
        :attr:`~repro.core.brsmn.RoutingResult.verification` attached.

    Raises:
        RoutingInvariantError: if ``strict`` and verification finds any
            violation (missing / spurious / misrouted delivery).
    """
    cfg = _resolve_config(n)
    net = build_network(cfg)
    asg = _coerce_assignment(cfg.n, assignment)
    result = net.route(asg, mode=mode, payloads=payloads, collect_trace=collect_trace)
    report = verify_result(result)
    result.verification = report
    if strict and not report.ok:
        raise RoutingInvariantError(
            "routing verification failed: " + "; ".join(report.violations)
        )
    return result


def route_resilient(
    n,
    assignment: AssignmentLike,
    *,
    mode: str = "selfrouting",
    payloads: Optional[Sequence] = None,
    policy=None,
):
    """Route with self-healing: detect, retry, reroute, degrade.

    The resilient counterpart of :func:`route_multicast` for networks
    carrying a :class:`~repro.faults.plan.FaultPlan` (via
    ``NetworkConfig(n, fault_plan=...)``): instead of raising on a
    verification violation, failed terminals are re-routed through
    repair passes bounded by the
    :class:`~repro.faults.healing.RetryPolicy`, and the caller receives
    a :class:`~repro.faults.healing.DegradedResult` naming every
    terminal's outcome.  On a healthy network this is one ordinary
    verified pass.

    Args:
        n: a :class:`~repro.core.config.NetworkConfig` or a bare
            network size.
        assignment: a :class:`MulticastAssignment`, a list of
            destination iterables, or a sparse ``{input: destinations}``
            mapping.
        mode: ``"selfrouting"`` (default) or ``"oracle"``.
        payloads: optional per-input payloads (repair passes re-send
            the same payloads).
        policy: optional :class:`~repro.faults.healing.RetryPolicy`.

    With ``deadline_ms`` on the config, the healing retries run under a
    :class:`~repro.resilience.budget.DeadlineBudget`: an expired budget
    stops further repair passes and the result reports
    ``deadline_expired=True`` (remaining terminals count as lost).

    Returns:
        A :class:`~repro.faults.healing.DegradedResult`; its ``ok``
        property is True when every terminal was delivered (possibly
        after healing).
    """
    cfg = _resolve_config(n)
    net = build_network(cfg)
    asg = _coerce_assignment(cfg.n, assignment)
    budget = None if cfg.deadline_ms is None else DeadlineBudget(cfg.deadline_ms)
    return healing.route_with_healing(
        net, asg, mode=mode, payloads=payloads, policy=policy, budget=budget
    )
