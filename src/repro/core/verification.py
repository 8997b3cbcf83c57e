"""Delivery verification: the nonblocking-multicast acceptance criteria.

The headline claim of the paper is that a BRSMN "can realize arbitrary
multicast assignments between its inputs and outputs without any
blocking" over edge-disjoint trees.  :func:`verify_delivery` checks the
outcome of a routing pass against the assignment, and
:func:`verify_edge_disjoint` checks the per-link exclusivity property
on a recorded trace (every link of every stage carries at most one
message per frame — which is what makes the realized connection trees
edge-disjoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..rbn.trace import Trace
from .message import Message
from .multicast import MulticastAssignment

__all__ = ["VerificationReport", "verify_delivery", "verify_edge_disjoint", "verify_result"]


@dataclass
class VerificationReport:
    """Outcome of verifying one routing pass.

    Attributes:
        ok: True when no violations were found.
        violations: human-readable descriptions of every failure.
        deliveries: number of (output, message) deliveries checked.
    """

    ok: bool
    violations: List[str] = field(default_factory=list)
    deliveries: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_delivery(
    assignment: MulticastAssignment,
    outputs: Sequence[Optional[Message]],
) -> VerificationReport:
    """Check that a routed frame delivered the assignment exactly.

    Verifies, for every output ``o``:

    * if ``o`` is in some ``I_i``, the delivered message's source is
      ``i`` (and its payload is input ``i``'s payload);
    * if ``o`` is in no destination set, nothing was delivered.
    """
    violations: List[str] = []
    if len(outputs) != assignment.n:
        return VerificationReport(
            False, [f"expected {assignment.n} outputs, got {len(outputs)}"]
        )
    inverse = assignment.inverse_map()
    deliveries = 0
    for o, msg in enumerate(outputs):
        expect = inverse.get(o)
        if expect is None:
            if msg is not None:
                violations.append(
                    f"output {o}: spurious delivery from input {msg.source}"
                )
            continue
        if msg is None:
            violations.append(f"output {o}: missing delivery from input {expect}")
        elif msg.source != expect:
            violations.append(
                f"output {o}: delivered from input {msg.source}, expected {expect}"
            )
        else:
            deliveries += 1
    return VerificationReport(not violations, violations, deliveries)


def verify_edge_disjoint(trace: Trace) -> VerificationReport:
    """Check per-link exclusivity on a recorded trace.

    In a circuit-switched frame, each physical link carries exactly one
    cell by construction; what can go wrong is a switch *overwriting* a
    message (two messages entering, fewer leaving) or fabricating one.
    This check asserts conservation per recorded stage: the multiset of
    non-idle payload identities leaving a stage equals the multiset
    entering it, except at legal broadcast switches where one alpha
    message becomes its two branch copies.
    """
    violations: List[str] = []
    for si, st in enumerate(trace.stages):
        n_in = sum(1 for c in st.inputs if not c.is_empty)
        n_out = sum(1 for c in st.outputs if not c.is_empty)
        if n_out != n_in + st.broadcast_count:
            violations.append(
                f"stage {si} (size {st.size} at offset {st.offset}): "
                f"{n_in} messages in, {n_out} out with "
                f"{st.broadcast_count} broadcasts"
            )
    return VerificationReport(not violations, violations, deliveries=0)


def verify_result(result: RoutingResult) -> VerificationReport:
    """Verify a :class:`~repro.core.brsmn.RoutingResult` end to end.

    The proof is made once, when the plan is compiled:
    :func:`~repro.core.fastplan.compile_frame_plans` compares a
    fault-free plan's ``delivery_src`` with its assignment's source
    vector and records that vector on the plan as ``proven``.  A result
    is then accepted in O(1) when all of these hold: it still carries
    the plan's own (read-only) ``delivery_src``; the plan's ``proven``
    vector *is* ``result.assignment.source_vector()`` (the very
    assignment object that was compiled); it has no trace; and its
    ``outputs`` list was never built.

    Every other result takes the per-frame check.  If ``outputs`` was
    never built (a fast-engine result nobody has read — an equal but
    distinct assignment, a fault casualty copy, a faulted plan), it is
    one array comparison: by the nonblocking theorem a correct pass
    delivers exactly ``assignment.source_vector()``.  On a mismatch, or
    once ``outputs`` exists (a caller may have edited it),
    :func:`verify_delivery` walks every output and names each
    violation.  When a trace is present, :func:`verify_edge_disjoint`
    is added.
    """
    src = result.delivery_src
    proven = getattr(result.plan, "proven", None)
    if (
        proven is not None
        and src is result.plan.delivery_src
        and proven is result.assignment.source_vector()
        and result.trace is None
        and not result.outputs_materialised
    ):
        return VerificationReport(True, [], result.assignment.total_fanout)
    if (
        src is not None
        and not result.outputs_materialised
        and np.array_equal(src, result.assignment.source_vector())
    ):
        report = VerificationReport(True, [], result.assignment.total_fanout)
    else:
        report = verify_delivery(result.assignment, result.outputs)
    if result.trace is not None:
        edge = verify_edge_disjoint(result.trace)
        if not edge.ok:
            report.ok = False
            report.violations.extend(edge.violations)
    return report
