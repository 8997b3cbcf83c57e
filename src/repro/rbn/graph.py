"""RBN topology as a graph: structural properties, formally checked.

Exports the reverse banyan network's link structure as a
:class:`networkx.DiGraph` so classic graph-theoretic facts about banyan
networks can be checked mechanically rather than asserted:

* **unique path** — an RBN is a banyan: between any (input, output)
  pair there is *exactly one* path.  This is why self-routing works at
  all: once a cell's half-target is decided per stage, no further
  choice exists.
* **full access** — every input reaches every output.
* **stage-regularity** — every node has in/out degree 2 except the
  terminals.

Node naming: ``("in", t)`` and ``("out", t)`` for network terminals,
``("link", k, t)`` for terminal ``t``'s link after stage ``k``
(stages 1-based).  Edges follow the physical wiring: a stage-``k``
switch joins terminals ``i`` and ``i + 2^{k-1}`` of its size-``2^k``
block, and each of its outputs is reachable from both of its inputs
(the graph is the *possibility* structure; a setting picks one
matching inside it).
"""

from __future__ import annotations

from typing import Tuple

from .permutations import check_network_size
from .topology import RBNTopology

__all__ = ["rbn_link_graph", "count_paths", "unique_path_property"]


def rbn_link_graph(n: int) -> "nx.DiGraph":
    """Build the directed link graph of an ``n x n`` RBN.

    Returns:
        A DAG from ``("in", t)`` nodes through per-stage link nodes to
        ``("out", t)`` nodes; every stage-``k`` switch contributes the
        four edges (each input port can reach each output port under
        some setting).
    """
    import networkx as nx  # deferred: only graph checks need it

    check_network_size(n)
    topo = RBNTopology(n)
    g: "nx.DiGraph" = nx.DiGraph()

    def node(stage: int, t: int) -> Tuple:
        if stage == 0:
            return ("in", t)
        if stage == topo.stage_count:
            return ("out", t)
        return ("link", stage, t)

    for stage in range(1, topo.stage_count + 1):
        for sw in topo.switches_in_stage(stage):
            for src in (sw.upper_terminal, sw.lower_terminal):
                for dst in (sw.upper_terminal, sw.lower_terminal):
                    g.add_edge(node(stage - 1, src), node(stage, dst))
    return g


def count_paths(graph: "nx.DiGraph", n: int, source: int, target: int) -> int:
    """Number of distinct input-to-output paths through the link graph."""
    import networkx as nx  # deferred, as in rbn_link_graph

    return sum(
        1
        for _ in nx.all_simple_paths(
            graph, ("in", source), ("out", target)
        )
    )


def unique_path_property(n: int) -> bool:
    """Check the banyan property: exactly one path per (input, output).

    Exhaustive over all ``n^2`` pairs — intended for small/medium
    ``n``; the count is verified to be exactly 1 everywhere.
    """
    g = rbn_link_graph(n)
    # dynamic programming beats per-pair path enumeration: count paths
    # from every input simultaneously, layer by layer.
    m = check_network_size(n)
    import numpy as np

    counts = np.eye(n, dtype=np.int64)  # counts[src, t] at layer 0
    topo = RBNTopology(n)
    for stage in range(1, m + 1):
        nxt = np.zeros_like(counts)
        for sw in topo.switches_in_stage(stage):
            for src_t in (sw.upper_terminal, sw.lower_terminal):
                for dst_t in (sw.upper_terminal, sw.lower_terminal):
                    nxt[:, dst_t] += counts[:, src_t]
        counts = nxt
    ok = bool((counts == 1).all())
    # cross-check a few pairs against the literal graph enumeration
    for src, dst in ((0, 0), (0, n - 1), (n // 2, 1)):
        if count_paths(g, n, src, dst) != 1:
            return False
    return ok
