"""JSON serialisation for assignments, requests and routing results.

Interop layer for the CLI and for users driving the library from other
tools: a stable, documented JSON shape for the three objects that cross
process boundaries.

Formats (all top-level objects carry a ``"kind"`` discriminator):

``assignment``::

    {"kind": "assignment", "n": 8,
     "destinations": {"0": [0, 1], "2": [3, 4, 7]}}

``requests``::

    {"kind": "requests", "n": 8,
     "requests": [{"source": 0, "destinations": [1, 2], "payload": "x"}]}

``result`` (write-only — results are reproducible from assignments)::

    {"kind": "result", "n": 8, "mode": "selfrouting",
     "deliveries": {"0": {"source": 0, "payload": "pkt0"}, ...},
     "stats": {"splits": 3, "switch_ops": 44}}
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..errors import InvalidAssignmentError
from .admission import Request
from .multicast import MulticastAssignment, assignment_fingerprint

__all__ = [
    "assignment_to_json",
    "assignment_from_json",
    "assignment_fingerprint",
    "requests_to_json",
    "requests_from_json",
    "result_to_json",
]


def assignment_to_json(assignment: MulticastAssignment) -> str:
    """Serialise an assignment to the documented JSON shape."""
    dests = {
        str(i): sorted(ds)
        for i, ds in enumerate(assignment.destinations)
        if ds
    }
    return json.dumps(
        {"kind": "assignment", "n": assignment.n, "destinations": dests},
        indent=2,
    )


def assignment_from_json(text: str) -> MulticastAssignment:
    """Parse an assignment; validates shape and the Section 2 model.

    Raises:
        InvalidAssignmentError: on a malformed document or an invalid
            assignment.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidAssignmentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "assignment":
        raise InvalidAssignmentError('expected {"kind": "assignment", ...}')
    try:
        n = int(doc["n"])
        mapping = {
            int(k): [int(d) for d in v] for k, v in doc["destinations"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidAssignmentError(f"malformed assignment document: {exc}") from exc
    return MulticastAssignment.from_dict(n, mapping)


def requests_to_json(n: int, requests: List[Request]) -> str:
    """Serialise a request batch."""
    return json.dumps(
        {
            "kind": "requests",
            "n": n,
            "requests": [
                {
                    "source": r.source,
                    "destinations": sorted(r.destinations),
                    "payload": r.payload,
                    "priority": r.priority,
                }
                for r in requests
            ],
        },
        indent=2,
    )


def requests_from_json(text: str):
    """Parse a request batch; returns ``(n, [Request, ...])``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidAssignmentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "requests":
        raise InvalidAssignmentError('expected {"kind": "requests", ...}')
    try:
        n = int(doc["n"])
        requests = [
            Request(
                source=int(r["source"]),
                destinations=frozenset(int(d) for d in r["destinations"]),
                payload=r.get("payload"),
                priority=int(r.get("priority", 0)),
            )
            for r in doc["requests"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAssignmentError(f"malformed requests document: {exc}") from exc
    return n, requests


def result_to_json(result: RoutingResult) -> str:
    """Serialise a routing result's deliveries and stats."""
    deliveries: Dict[str, Any] = {}
    for o, msg in enumerate(result.outputs):
        if msg is not None:
            deliveries[str(o)] = {"source": msg.source, "payload": msg.payload}
    return json.dumps(
        {
            "kind": "result",
            "n": result.assignment.n,
            "mode": result.mode,
            "deliveries": deliveries,
            "stats": {
                "splits": result.total_splits,
                "switch_ops": result.switch_ops,
                "final_switches": result.final_switches,
            },
        },
        indent=2,
    )
