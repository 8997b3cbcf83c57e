"""NumPy fast path for the bit-sorting and quasisorting RBN passes.

The reference implementations (:mod:`repro.rbn.bitsort`,
:mod:`repro.rbn.quasisort`) walk the paper's distributed algorithms
switch by switch.  This module evaluates the same mathematics from the
closed forms of the backward phases, in a fixed number of array calls
per stage:

* **bit sort (Theorem 1)** — the gamma cells fill ``C^n_{s,l}`` in
  input order and the rest fill the other outputs in reverse input
  order, so one ``cumsum`` of ranks gives every output position;
* **epsilon division (Table 6)** — the upper-first top-down split gives
  dummy 0 to the first ``e0`` epsilons of a block, so one ``cumsum``
  ranks the epsilons and a comparison labels them.

The scatter pass (:mod:`repro.rbn.fast_scatter`) alone goes through
switch settings: one Table 5 compact setting per node, which
:func:`compose_stages` expands into ``(m, n)`` stage gathers (through
an 8-entry ``(setting, is_lower)`` table) and composes into one gather
``out[i] = in[src[i]]``.  The node tables this needs depend only on
the shape, so :func:`shape_tables` memoises them per ``(blocks, n)``
for one network's levels; a batched compile, whose shape changes with
the batch size, builds its own with :func:`build_shape_tables`.

Every kernel is *block-batched*: a ``(blocks, n')`` matrix of
independent same-size sub-networks runs in the same array calls; one
BRSMN recursion level is ``2^k`` side-by-side BSNs of size ``n / 2^k``.

Equivalence with the reference implementation is tested in
``tests/rbn/test_fast.py`` and ``tests/rbn/test_compile_kernels.py``;
``benchmarks/bench_fast_engine.py`` measures the speed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.tags import Tag
from ..errors import RoutingInvariantError
from .cells import Cell
from .permutations import check_network_size

__all__ = [
    "fast_sort_permutation",
    "fast_sort_permutation_batch",
    "fast_divide_epsilons",
    "fast_divide_epsilons_batch",
    "fast_quasisort",
    "fast_sort_cells",
]


class ShapeTables(NamedTuple):
    """Node tables of ``blocks`` side-by-side ``n``-input RBNs.

    Stage ``k`` (``k = 0`` outermost) splits the flat ``blocks * n``
    layout into nodes of size ``n >> k``, each a merging stage of
    ``(n >> k) / 2`` switches.  Nodes are numbered level-major (all of
    stage 0, then stage 1, ...), which is also the order in which they
    tile the flat ``(m, blocks * n)`` layout of all stages.
    """

    node_half: np.ndarray  # (N,): half size of each node
    level_start: Tuple[int, ...]  # m + 1 offsets into the node arrays


def build_shape_tables(blocks: int, n: int) -> ShapeTables:
    """The (read-only, int32) :class:`ShapeTables` of a shape, built
    afresh.  A batched compile
    (:func:`~repro.core.fastplan.compile_frame_plans`) has a new shape
    per batch size, so it builds its tables instead of growing the
    :func:`shape_tables` memo."""
    m = check_network_size(n)
    starts = blocks * ((1 << np.arange(m + 1)) - 1)
    node_level = np.repeat(np.arange(m), blocks << np.arange(m))
    tables = ShapeTables(
        node_half=(n >> (node_level + 1)).astype(np.int32),
        level_start=tuple(int(v) for v in starts),
    )
    for table in tables[:-1]:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def shape_tables(blocks: int, n: int) -> ShapeTables:
    """The memoised :func:`build_shape_tables` — one network's level
    shapes, which every compile at that size reuses."""
    return build_shape_tables(blocks, n)


# (2 * setting + is_lower) -> source offset in units of the node half,
# and the copy role (0 unicast, 1/2 the tag-0/tag-1 copy of a split
# alpha).  Settings are SwitchSetting values: 0 parallel, 1 cross,
# 2 upper broadcast, 3 lower broadcast; the upper output of switch i
# sits at i, the lower at i + half.
_HALF_OFFSET = np.array([0, 0, 1, -1, 0, -1, 1, 0])
_ROLE = np.array([0, 0, 0, 0, 1, 2, 1, 2])
_IS_LOWER = np.array([[0], [0], [0], [1], [1], [1]])


def compose_stages(
    tables: ShapeTables, blk_s, blk_l, val, pre, post
) -> Tuple[np.ndarray, np.ndarray]:
    """Run one Table 5 compact setting per node as one flat gather.

    A node's setting is a circular block ``[blk_s, blk_s + blk_l)`` of
    ``val`` switches, ``pre`` before the block and ``post`` after it:
    at most three constant runs over its switches, which its upper and
    then its lower outputs repeat.  One ``np.repeat`` of the runs'
    ``(setting, is_lower)`` gather offsets therefore lays out the stage
    gathers of every node of every stage.  The scatter pass is the one
    caller; the bit sort has a closed form (:func:`sort_gather`).

    Returns ``(src, role)``: output ``i`` takes input ``src[i]``;
    ``role`` marks the copies of split alphas.  With ``y_m`` the input
    and ``y_k[i] = y_{k+1}[stage_k[i]]``, the pass is ``src =
    stage_{m-1}[... stage_0]``, composed outermost stage first.
    """
    h = tables.node_half
    end = blk_s + blk_l
    wrap = end > h  # the block wraps: [0, end - h) and [blk_s, h)
    settings = np.where(wrap, (val, pre, val), (pre, val, post))
    lengths = np.where(
        wrap, (end - h, h - blk_l, h - blk_s), (blk_s, blk_l, h - end)
    )
    runs = 2 * np.concatenate((settings, settings)) + _IS_LOWER  # (6, N)
    lengths = np.concatenate((lengths, lengths)).T.reshape(-1)
    offsets = np.repeat((_HALF_OFFSET[runs] * h).T.reshape(-1), lengths)
    stage = offsets.reshape(len(tables.level_start) - 1, -1)
    stage += np.arange(stage.shape[1])
    role = np.repeat(_ROLE[runs].T.reshape(-1), lengths).reshape(stage.shape)
    src, out_role = stage[0], role[0]
    for k in range(1, stage.shape[0]):
        # A split never yields another alpha, so at most one stage of a
        # chain broadcasts; its role is the chain's.
        r = role[k][src]
        out_role = np.where(r != 0, r, out_role)
        src = stage[k][src]
    return src, out_role


def sort_gather(gamma: np.ndarray, s_vals: np.ndarray) -> np.ndarray:
    """Theorem 1 over a ``(blocks, n)`` 0/1 matrix, as a flat gather.

    The RBN puts a gamma of rank ``r1`` among its row's gammas at ``(s +
    r1) mod n`` and a non-gamma of rank ``r0`` among the rest at ``(s -
    1 - r0) mod n``.  The switch settings follow from the same ranks:
    with ``P`` the root start plus the gamma count before a node's
    midpoint, the node's merging stage is the compact setting ``W(0,
    s1; 1 - b, b)``, ``s1 = P mod half``, ``b = floor(P / half) mod 2``.
    """
    blocks, n = gamma.shape
    r1 = np.cumsum(gamma, axis=1) - gamma  # r0 = i - r1
    dest = np.where(gamma, r1, r1 - 1 - np.arange(n)) + s_vals[:, None]
    dest &= n - 1
    dest += (np.arange(blocks) * n)[:, None]
    perm = np.empty(blocks * n, dtype=np.int64)
    perm[dest.reshape(-1)] = np.arange(blocks * n)
    return perm


def fast_sort_permutation_batch(gamma: np.ndarray, s) -> np.ndarray:
    """Vectorised Theorem 1 over a batch of independent equal-size blocks.

    Args:
        gamma: 0/1 matrix of shape ``(blocks, n')`` — one row per
            independent sub-RBN.
        s: per-block target starting positions (scalar or ``(blocks,)``
            array).

    Returns:
        A ``(blocks, n')`` index matrix of *block-local* permutations:
        row ``b`` satisfies ``out[b, i] = in[b, pi[b, i]]`` and matches
        :func:`fast_sort_permutation` run on that row alone.
    """
    gamma = np.asarray(gamma, dtype=np.int64)
    if gamma.ndim != 2:
        raise ValueError(f"expected a (blocks, n) matrix, got shape {gamma.shape}")
    blocks, n = gamma.shape
    check_network_size(n)
    s_vals = np.broadcast_to(np.asarray(s, dtype=np.int64), (blocks,))
    if np.any((s_vals < 0) | (s_vals >= n)):
        raise ValueError(f"s={s} out of range [0, {n})")
    perm = sort_gather(gamma, s_vals).reshape(blocks, n)
    return perm - (np.arange(blocks, dtype=np.int64) * n)[:, None]


def fast_sort_permutation(gamma: np.ndarray, s: int) -> np.ndarray:
    """Vectorised Theorem 1: the routing permutation of a bit sort.

    Args:
        gamma: boolean (or 0/1) vector of length ``n`` marking the
            gamma cells.
        s: target starting position of the gamma block.

    Returns:
        An index array ``pi`` with ``out[i] = in[pi[i]]``; applying it
        places the gamma cells at ``C^n_{s, l}`` exactly as the
        reference :func:`repro.rbn.bitsort.route_to_compact` does.
    """
    return fast_sort_permutation_batch(np.asarray(gamma)[None, :], int(s))[0]


def block_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """``(blocks, k)`` populations of the codes ``0 .. k-1`` per row."""
    blocks = codes.shape[0]
    keyed = codes + k * np.arange(blocks)[:, None]
    return np.bincount(keyed.reshape(-1), minlength=blocks * k).reshape(blocks, k)


def divide_epsilons(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Table 6 on a ``(blocks, n)`` 0/1/2 matrix whose per-block
    ``[n0, n1, ne]`` populations are ``counts``.

    The upper-first top-down split hands dummy 0 to the first ``e0``
    epsilons of each block, so an epsilon's rank among the block's
    epsilons decides its label.
    """
    n = codes.shape[1]
    half = n // 2
    n_zero, n_one, n_eps = counts[:, 0], counts[:, 1], counts[:, 2]
    over = (n_one > half) | (n_zero > half)
    if over.any():
        bad = int(np.argmax(over))
        raise RoutingInvariantError(
            "quasisort precondition violated: "
            f"n0={int(n_zero[bad])}, n1={int(n_one[bad])} (block {bad})"
        )
    root_e1 = half - n_one
    root_e0 = n_eps - root_e1
    if ((root_e0 < 0) | (root_e1 < 0)).any():
        raise RoutingInvariantError("epsilon-division counts went negative")
    is_eps = codes == 2
    rank = np.cumsum(is_eps, axis=1) - is_eps
    return np.where(is_eps, 4 - (rank < root_e0[:, None]), codes)


def fast_divide_epsilons_batch(codes: np.ndarray) -> np.ndarray:
    """Vectorised Table 6 over a batch of independent equal-size blocks.

    Args:
        codes: int matrix of shape ``(blocks, n')`` with 0 = tag ZERO,
            1 = tag ONE, 2 = EPS — one row per independent sub-network.

    Returns:
        A matrix where every 2 became 3 (dummy 0) or 4 (dummy 1), each
        row identical to :func:`fast_divide_epsilons` on that row alone.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError(f"expected a (blocks, n) matrix, got shape {codes.shape}")
    check_network_size(codes.shape[1])
    return divide_epsilons(codes, block_counts(codes, 3))


def fast_divide_epsilons(codes: np.ndarray) -> np.ndarray:
    """Vectorised Table 6: assign dummy labels to epsilon entries.

    Args:
        codes: int vector with 0 = tag ZERO, 1 = tag ONE, 2 = EPS.

    Returns:
        A vector where every 2 became 3 (dummy 0, eps0) or 4 (dummy 1,
        eps1) with the same greedy top-down split as the reference
        :func:`repro.rbn.quasisort.divide_epsilons` (upper child's
        demand satisfied with dummy 0s first).
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ValueError(f"expected a flat code vector, got shape {codes.shape}")
    return fast_divide_epsilons_batch(codes[None, :])[0]


_CODE_OF_TAG = {Tag.ZERO: 0, Tag.ONE: 1, Tag.EPS: 2}


def fast_sort_cells(cells: Sequence[Cell], s: int, one_tags=(Tag.ONE, Tag.EPS1)) -> List[Cell]:
    """Fast-path replacement for ``route_to_compact`` on cell lists."""
    ones = set(one_tags)
    gamma = np.fromiter((c.tag in ones for c in cells), dtype=np.int64, count=len(cells))
    perm = fast_sort_permutation(gamma, s)
    return [cells[int(i)] for i in perm]


def fast_quasisort(cells: Sequence[Cell], *, keep_dummies: bool = False) -> List[Cell]:
    """Fast-path replacement for :func:`repro.rbn.quasisort.quasisort`.

    Produces byte-identical results (same cells, same positions, same
    dummy assignment) via the vectorised divide + sort kernels.
    """
    n = len(cells)
    check_network_size(n)
    try:
        codes = np.fromiter(
            (_CODE_OF_TAG[c.tag] for c in cells), dtype=np.int64, count=n
        )
    except KeyError as exc:
        raise RoutingInvariantError(
            f"quasisort input must be 0/1/eps, got {exc.args[0]}"
        ) from exc
    divided_codes = fast_divide_epsilons(codes)
    divided = [
        c if codes[i] != 2 else c.with_tag(Tag.EPS0 if divided_codes[i] == 3 else Tag.EPS1)
        for i, c in enumerate(cells)
    ]
    one_mask = (divided_codes == 1) | (divided_codes == 4)
    perm = fast_sort_permutation(one_mask.astype(np.int64), n // 2)
    out = [divided[int(i)] for i in perm]
    if keep_dummies:
        return out
    return [
        c.with_tag(Tag.EPS) if c.tag in (Tag.EPS0, Tag.EPS1) else c for c in out
    ]
