"""Call admission and frame scheduling for conflicting multicast requests.

A multicast *assignment* (Section 2) requires disjoint destination sets
and one message per input — but a real switch receives *requests* that
conflict: two calls may target the same output port, and one input may
have several calls queued.  The paper's network routes any one valid
frame; turning a request batch into a minimal sequence of valid frames
is the admission-control problem this module solves:

* :class:`Request` — one multicast call (source, destination set).
* :func:`conflicts` — two requests conflict iff they share the source
  input or any destination output.
* :func:`schedule_frames` — partition requests into frames (valid
  assignments), greedily:

  - ``"first_fit"`` — in arrival order, place each request into the
    first frame it does not conflict with;
  - ``"largest_first"`` — sort by fanout descending first (classic
    greedy colouring heuristic; never worse than first-fit on the
    frame-count lower bound and usually better on skewed batches).

  Frame scheduling is interval-graph colouring in disguise; greedy
  colouring needs at most ``max_degree + 1`` frames and at least
  ``max_multiplicity`` (the most-demanded single port), both reported.
* :func:`route_requests` — schedule and route everything through a
  network, returning per-request delivery records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import InvalidAssignmentError, RoutingInvariantError
from ..rbn.permutations import check_network_size
from .config import NetworkConfig
from .multicast import MulticastAssignment
from .routing import build_network
from .verification import verify_result

__all__ = [
    "Request",
    "conflicts",
    "frame_lower_bound",
    "schedule_frames",
    "ScheduleOutcome",
    "route_requests",
]


@dataclass(frozen=True)
class Request:
    """One multicast call request.

    Attributes:
        source: requesting input port.
        destinations: requested output ports (non-empty).
        payload: opaque user data delivered to each destination.
        priority: admission class — under overload the
            :class:`~repro.resilience.gate.AdmissionGate` sheds
            ``priority <= 0`` requests first; ``priority > 0`` requests
            survive soft shedding and may draw on the token reserve.
    """

    source: int
    destinations: FrozenSet[int]
    payload: object = None
    priority: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "destinations", frozenset(self.destinations))
        if not self.destinations:
            raise InvalidAssignmentError("a request needs >= 1 destination")

    @property
    def fanout(self) -> int:
        """Number of requested destinations."""
        return len(self.destinations)


def conflicts(a: Request, b: Request) -> bool:
    """True iff the two requests cannot share a frame.

    They conflict when they claim the same source input (an input
    injects one message per frame) or any common destination output
    (an output hears one message per frame).
    """
    return a.source == b.source or bool(a.destinations & b.destinations)


def frame_lower_bound(requests: Sequence[Request]) -> int:
    """A lower bound on the frames any schedule needs.

    The most-demanded single port — input or output — must appear in a
    distinct frame per request touching it.
    """
    load: Dict[Tuple[str, int], int] = {}
    for r in requests:
        load[("in", r.source)] = load.get(("in", r.source), 0) + 1
        for d in r.destinations:
            load[("out", d)] = load.get(("out", d), 0) + 1
    return max(load.values(), default=0)


@dataclass
class ScheduleOutcome:
    """Result of scheduling one request batch.

    Attributes:
        n: network size.
        frames: the valid assignments, in transmission order.
        placement: request index -> frame index.
        lower_bound: the port-multiplicity lower bound.
    """

    n: int
    frames: List[MulticastAssignment] = field(default_factory=list)
    placement: Dict[int, int] = field(default_factory=dict)
    lower_bound: int = 0

    @property
    def frame_count(self) -> int:
        """Frames used by this schedule."""
        return len(self.frames)

    @property
    def optimal(self) -> bool:
        """True when the schedule meets the lower bound."""
        return self.frame_count == self.lower_bound


def schedule_frames(
    n: int,
    requests: Sequence[Request],
    policy: str = "largest_first",
) -> ScheduleOutcome:
    """Partition a request batch into valid multicast frames.

    Args:
        n: network size (power of two).
        requests: the batch; destinations must lie in ``[0, n)``.
        policy: ``"first_fit"`` or ``"largest_first"``.

    Returns:
        The frames (each a valid :class:`MulticastAssignment`) plus the
        placement map and the lower bound for quality assessment.

    Raises:
        InvalidAssignmentError: on out-of-range ports.
        ValueError: on an unknown policy.
    """
    check_network_size(n)
    for r in requests:
        if not 0 <= r.source < n:
            raise InvalidAssignmentError(f"source {r.source} out of range")
        for d in r.destinations:
            if not 0 <= d < n:
                raise InvalidAssignmentError(f"destination {d} out of range")

    if policy == "first_fit":
        order = list(range(len(requests)))
    elif policy == "largest_first":
        order = sorted(
            range(len(requests)), key=lambda i: -requests[i].fanout
        )
    else:
        raise ValueError(f"unknown policy {policy!r}")

    # per frame: used sources and used outputs
    frame_sources: List[set] = []
    frame_outputs: List[set] = []
    frame_members: List[List[int]] = []
    placement: Dict[int, int] = {}
    for idx in order:
        r = requests[idx]
        for f in range(len(frame_members)):
            if r.source not in frame_sources[f] and not (
                r.destinations & frame_outputs[f]
            ):
                break
        else:
            f = len(frame_members)
            frame_sources.append(set())
            frame_outputs.append(set())
            frame_members.append([])
        frame_sources[f].add(r.source)
        frame_outputs[f] |= r.destinations
        frame_members[f].append(idx)
        placement[idx] = f

    frames = []
    for members in frame_members:
        dests: List[Optional[List[int]]] = [None] * n
        for idx in members:
            dests[requests[idx].source] = sorted(requests[idx].destinations)
        frames.append(MulticastAssignment(n, dests))
    return ScheduleOutcome(
        n=n,
        frames=frames,
        placement=placement,
        lower_bound=frame_lower_bound(requests),
    )


def route_requests(
    n: int,
    requests: Sequence[Request],
    *,
    policy: str = "largest_first",
    implementation: str = "unrolled",
    mode: str = "selfrouting",
) -> Tuple[ScheduleOutcome, List[Dict[int, object]]]:
    """Schedule a batch and route every frame through a real network.

    Returns:
        ``(schedule, deliveries)`` where ``deliveries[k]`` maps each
        output used in frame ``k`` to the payload delivered there.
        Every request is verified to have reached exactly its
        destination set in its assigned frame.

    Raises:
        RoutingInvariantError: if any frame fails verification
            (impossible for the BRSMN on valid frames — this is the
            safety net).
    """
    schedule = schedule_frames(n, requests, policy)
    network = build_network(NetworkConfig(n, implementation=implementation))
    deliveries: List[Dict[int, object]] = []
    for k, frame in enumerate(schedule.frames):
        payloads = [None] * n
        for idx, f in schedule.placement.items():
            if f == k:
                payloads[requests[idx].source] = requests[idx].payload
        result = network.route(frame, mode=mode, payloads=payloads)
        report = verify_result(result)
        if not report.ok:
            raise RoutingInvariantError(
                f"frame {k} failed: " + "; ".join(report.violations)
            )
        deliveries.append(
            {o: m.payload for o, m in result.delivered.items()}
        )
    return schedule, deliveries
