"""The multicast assignment model of paper Section 2.

A *multicast assignment* for an ``n x n`` network is a family
``{I_0, I_1, ..., I_{n-1}}`` where ``I_i`` is the *destination set* of
input ``i``: the subset of outputs input ``i``'s message must reach.
The sets must be pairwise disjoint (an output hears at most one input)
but need not cover all outputs.  A *permutation assignment* is the
special case where every ``|I_i| <= 1``.

The paper's running example (Section 2, Fig. 2) is the 8x8 assignment::

    { {0,1}, {}, {3,4,7}, {2}, {}, {}, {}, {5,6} }

exposed here as :func:`paper_example_assignment`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import InvalidAssignmentError
from ..rbn.permutations import check_network_size

__all__ = [
    "MulticastAssignment",
    "assignment_fingerprint",
    "paper_example_assignment",
]

DestinationsLike = Union[Iterable[int], None]

# The destination set of every idle input: most inputs of a sparse
# assignment are idle, and an empty frozenset costs 216 bytes each.
_NO_DESTINATIONS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class MulticastAssignment:
    """An immutable, validated multicast assignment.

    Attributes:
        n: network size (power of two).
        destinations: tuple of ``n`` frozensets; ``destinations[i]`` is
            ``I_i``.

    Values derived from the destination sets (:meth:`source_vector`,
    :meth:`fanout_counts`, the
    :func:`assignment_fingerprint` digest) are
    memoised on the instance outside the dataclass fields: equality,
    hashing and pickling see only ``n`` and ``destinations``.  Every
    idle input shares one empty frozenset.
    """

    n: int
    destinations: tuple

    def __init__(self, n: int, destinations: Sequence[DestinationsLike]):
        check_network_size(n)
        if len(destinations) != n:
            raise InvalidAssignmentError(
                f"expected {n} destination sets, got {len(destinations)}"
            )
        sets: List[FrozenSet[int]] = []
        seen: set = set()
        for i, dests in enumerate(destinations):
            ds = frozenset(dests) if dests is not None else _NO_DESTINATIONS
            for d in ds:
                if not isinstance(d, int) or not 0 <= d < n:
                    raise InvalidAssignmentError(
                        f"input {i}: destination {d!r} out of range [0, {n})"
                    )
                if d in seen:
                    raise InvalidAssignmentError(
                        f"output {d} appears in more than one destination set"
                    )
                seen.add(d)
            sets.append(ds or _NO_DESTINATIONS)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "destinations", tuple(sets))

    def __getstate__(self) -> dict:
        # Pickle the fields only; memoised values are rebuilt on demand.
        return {"n": self.n, "destinations": self.destinations}

    # -- constructors -------------------------------------------------
    @classmethod
    def from_dict(cls, n: int, mapping: Mapping[int, Iterable[int]]) -> "MulticastAssignment":
        """Build from a sparse ``{input: destinations}`` mapping."""
        dests: List[DestinationsLike] = [None] * n
        for i, ds in mapping.items():
            if not 0 <= i < n:
                raise InvalidAssignmentError(f"input {i} out of range [0, {n})")
            dests[i] = ds
        return cls(n, dests)

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "MulticastAssignment":
        """Build the (full or partial) permutation assignment ``i -> perm[i]``.

        ``perm[i]`` may be ``None`` for an idle input.
        """
        n = len(perm)
        return cls(
            n,
            [None if p is None else (p,) for p in perm],
        )

    @classmethod
    def from_source_vector(cls, vec: Sequence[int]) -> "MulticastAssignment":
        """Build the assignment whose :meth:`source_vector` is ``vec``.

        ``vec[o]`` is the input feeding output ``o``, or -1 for an
        unused output.
        """
        n = len(vec)
        dests: List[List[int]] = [[] for _ in range(n)]
        for o, i in enumerate(np.asarray(vec).tolist()):
            if i >= 0:
                if i >= n:
                    raise InvalidAssignmentError(
                        f"output {o}: input {i} out of range [0, {n})"
                    )
                dests[i].append(o)
        return cls(n, dests)

    @classmethod
    def broadcast(cls, n: int, source: int = 0) -> "MulticastAssignment":
        """The full broadcast: one input reaches every output."""
        dests: List[DestinationsLike] = [None] * n
        dests[source] = range(n)
        return cls(n, dests)

    @classmethod
    def identity(cls, n: int) -> "MulticastAssignment":
        """The identity permutation ``i -> i``."""
        return cls.from_permutation(list(range(n)))

    @classmethod
    def empty(cls, n: int) -> "MulticastAssignment":
        """The empty assignment: every input idle."""
        return cls(n, [None] * n)

    # -- queries ------------------------------------------------------
    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self.destinations)

    def __getitem__(self, i: int) -> FrozenSet[int]:
        return self.destinations[i]

    @property
    def active_inputs(self) -> List[int]:
        """Inputs with non-empty destination sets."""
        return [i for i, ds in enumerate(self.destinations) if ds]

    @property
    def used_outputs(self) -> FrozenSet[int]:
        """Union of all destination sets."""
        out: set = set()
        for ds in self.destinations:
            out |= ds
        return frozenset(out)

    @property
    def total_fanout(self) -> int:
        """Sum of destination-set sizes (= number of deliveries;
        memoised)."""
        total = self.__dict__.get("_total_fanout")
        if total is None:
            total = sum(f * c for f, c in self.fanout_counts().items())
            self.__dict__["_total_fanout"] = total
        return total

    @property
    def max_fanout(self) -> int:
        """Largest destination-set size."""
        return max((len(ds) for ds in self.destinations), default=0)

    @property
    def is_permutation(self) -> bool:
        """True when every destination set has at most one element."""
        return all(len(ds) <= 1 for ds in self.destinations)

    @property
    def load(self) -> float:
        """Fraction of outputs receiving a message."""
        return self.total_fanout / self.n

    def inverse_map(self) -> Dict[int, int]:
        """Map each used output to its (unique) source input."""
        inv: Dict[int, int] = {}
        for i, ds in enumerate(self.destinations):
            for d in ds:
                inv[d] = i
        return inv

    def source_vector(self) -> np.ndarray:
        """The inverse map as a read-only int64 array (memoised).

        ``source_vector()[o]`` is the input whose destination set holds
        output ``o``, or -1 for an unused output.  The sets are
        disjoint, so this vector is a canonical form of the assignment;
        by the nonblocking theorem it is also exactly the
        ``delivery_src`` of a fault-free routing pass.
        """
        vec = self.__dict__.get("_source_vector")
        if vec is None:
            vec = np.full(self.n, -1, dtype=np.int64)
            for i, ds in enumerate(self.destinations):
                if ds:
                    vec[list(ds)] = i
            vec.flags.writeable = False
            self.__dict__["_source_vector"] = vec
        return vec

    def fanout_counts(self) -> Mapping[int, int]:
        """Read-only ``{fanout: active inputs with that fanout}`` (memoised)."""
        counts = self.__dict__.get("_fanout_counts")
        if counts is None:
            counts = MappingProxyType(
                Counter(len(ds) for ds in self.destinations if ds)
            )
            self.__dict__["_fanout_counts"] = counts
        return counts

    def restrict(self, lo: int, hi: int) -> "MulticastAssignment":
        """Project onto the output window ``[lo, hi)`` re-based to 0.

        Inputs keep their indices modulo the window size only if they
        fall inside the window — this helper exists for tests that
        compare against half-size subproblems and requires
        ``hi - lo`` to be a power of two.
        """
        size = hi - lo
        dests: List[Optional[List[int]]] = [None] * size
        slot = 0
        for ds in self.destinations:
            clipped = sorted(d - lo for d in ds if lo <= d < hi)
            if clipped:
                if slot >= size:
                    raise InvalidAssignmentError(
                        "window overloaded: more sources than slots"
                    )
                dests[slot] = clipped
                slot += 1
        return MulticastAssignment(size, dests)

    def to_binary_strings(self) -> List[List[str]]:
        """Destination sets as binary address strings (paper Section 2)."""
        m = self.n.bit_length() - 1
        return [
            [format(d, f"0{m}b") for d in sorted(ds)] for ds in self.destinations
        ]

    def __str__(self) -> str:
        body = ", ".join(
            "{" + ",".join(map(str, sorted(ds))) + "}" if ds else "{}"
            for ds in self.destinations
        )
        return f"MulticastAssignment(n={self.n}, [{body}])"


def assignment_fingerprint(assignment: MulticastAssignment) -> str:
    """Canonical content fingerprint of an assignment.

    Two assignments fingerprint equal iff they have the same ``n`` and
    the same destination sets, regardless of how they were constructed.
    The digest keys the routing-plan cache
    (:class:`repro.core.fastplan.PlanCache`) and the cluster's
    rendezvous placement.  :mod:`repro.core.serialization` re-exports
    it under the same name.  It is memoised on the (immutable)
    assignment, so every call after the first is a dict read.

    Returns:
        A sha256 hex digest of the compact canonical JSON form.
    """
    digest = assignment.__dict__.get("_fingerprint")
    if digest is None:
        canonical = json.dumps(
            {
                "n": assignment.n,
                "destinations": {
                    str(i): sorted(ds)
                    for i, ds in enumerate(assignment.destinations)
                    if ds
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assignment.__dict__["_fingerprint"] = digest
    return digest


def paper_example_assignment() -> MulticastAssignment:
    """The 8x8 worked example of paper Section 2 / Fig. 2."""
    return MulticastAssignment(
        8, [{0, 1}, None, {3, 4, 7}, {2}, None, None, None, {5, 6}]
    )
