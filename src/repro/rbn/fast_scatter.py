"""NumPy scatter network: Table 4 compiled to a gather.

The reference scatter network (:mod:`repro.rbn.scatter`) runs the
paper's distributed algorithm switch by switch.  This module evaluates
the *same* Table 4 mathematics as whole-array NumPy operations,
producing a **gather index array**::

    out[i] = in[src[i]]

where an alpha cell that gets split simply appears as a *repeated*
source index.  A parallel ``role`` array disambiguates the two copies:
``role[i] == 1`` marks the tag-0 copy (carrying the alpha's ``branch0``
payload) and ``role[i] == 2`` the tag-1 copy (``branch1``); ``0`` is a
plain unicast move.  Because a split never produces another alpha, at
most one broadcast occurs along any input-output chain, so one
``(src, role)`` pair per output suffices to describe the whole pass.

One pass is four steps, each a fixed number of array calls per level:

* **forward** — the ``m``-step ``(l, t)`` fold up the tree.  The surplus
  is kept signed (``+l`` alpha-dominated, ``-l`` epsilon-dominated), so
  Lemma 1's addition and Lemmas 2-5's elimination are one sum; the type
  of a zero surplus is its upper child's;
* **backward** — every node's child-start offsets depend only on the
  forward counts, so they are evaluated for all nodes at once, and the
  starts accumulate down the tree as ``repeat + delta`` (the node sizes
  are powers of two, so one final ``mod`` per node suffices);
* **settings** — every lemma's switch vector is one of Table 5's
  compact settings, five scalars per node (block start, block length,
  block value, pre/post value), evaluated for all levels at once;
* **gather** — :func:`repro.rbn.fast.compose_stages` expands the
  scalars to ``(m, n)`` stage gathers and roles and composes them.

Like :mod:`repro.rbn.fast`, everything is block-batched.

Equivalence with :func:`repro.rbn.scatter.scatter` (cells, positions,
branch payloads, dummy handling) is tested in
``tests/rbn/test_fast_scatter.py`` and
``tests/rbn/test_compile_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.tags import Tag
from ..errors import RoutingInvariantError
from .cells import Cell
from .fast import ShapeTables, block_counts, compose_stages, shape_tables
from .permutations import check_network_size
from .switches import SwitchSetting

__all__ = [
    "CODE_ZERO",
    "CODE_ONE",
    "CODE_ALPHA",
    "CODE_EPS",
    "ScatterGather",
    "scatter_codes_of_cells",
    "fast_scatter_gather",
    "fast_scatter_gather_batch",
    "fast_scatter_cells",
]

#: Integer tag codes used by the scatter kernel (distinct from the
#: quasisort kernel's 0/1/2 encoding, which has no alpha).
CODE_ZERO = 0
CODE_ONE = 1
CODE_ALPHA = 2
CODE_EPS = 3

_SCATTER_CODE_OF_TAG = {
    Tag.ZERO: CODE_ZERO,
    Tag.ONE: CODE_ONE,
    Tag.ALPHA: CODE_ALPHA,
    Tag.EPS: CODE_EPS,
    Tag.EPS0: CODE_EPS,
    Tag.EPS1: CODE_EPS,
}

def scatter_codes_of_cells(cells: Sequence[Cell]) -> np.ndarray:
    """Project a cell vector onto the scatter kernel's integer codes."""
    return np.fromiter(
        (_SCATTER_CODE_OF_TAG[c.tag] for c in cells),
        dtype=np.int64,
        count=len(cells),
    )


@dataclass(frozen=True)
class ScatterGather:
    """One scatter pass compiled to a gather.

    Attributes:
        src: flat index array — output ``i`` takes the cell at input
            ``src[i]``; a split alpha's index appears twice.
        role: per-output copy discriminator — 0 = unicast move, 1 = the
            tag-0 copy of the split alpha at ``src[i]``, 2 = its tag-1
            copy.
    """

    src: np.ndarray
    role: np.ndarray

    def output_codes(self, codes: np.ndarray) -> np.ndarray:
        """Tag codes on the outputs, given the input codes (flat)."""
        flat = np.asarray(codes, dtype=np.int64).reshape(-1)
        # role 1 / 2 carry tag 0 / 1 (CODE_ZERO == 0, CODE_ONE == 1)
        return np.where(self.role == 0, flat[self.src], self.role - 1)

    def apply(self, cells: Sequence[Cell]) -> List[Cell]:
        """Materialise the pass on a cell vector.

        Produces exactly what :func:`repro.rbn.scatter.scatter` returns
        for the same frame: unicast cells move untouched and each split
        alpha yields its :meth:`~repro.rbn.cells.Cell.split` pair.
        """
        out: List[Cell] = []
        for i in range(len(self.src)):
            cell = cells[int(self.src[i])]
            r = int(self.role[i])
            if r == 0:
                out.append(cell)
            elif cell.tag is not Tag.ALPHA:
                raise RoutingInvariantError(
                    f"broadcast output {i} gathers from a {cell.tag} cell"
                )
            elif r == 1:
                out.append(Cell(Tag.ZERO, cell.branch0))
            else:
                out.append(Cell(Tag.ONE, cell.branch1))
        return out


def scatter_gather(
    codes: np.ndarray,
    s_vals,
    counts: Optional[np.ndarray] = None,
    tab: Optional[ShapeTables] = None,
) -> ScatterGather:
    """Table 4 over a ``(blocks, n)`` code matrix, as a flat gather.

    ``counts`` (optional, ``(blocks, 4)`` populations in code order)
    validates eq. (3) — ``na <= ne`` — per block.  ``tab`` defaults to
    the memoised tables of the shape.
    """
    over = counts is not None and counts[:, CODE_ALPHA] > counts[:, CODE_EPS]
    if np.any(over):
        bad = int(np.argmax(over))
        raise RoutingInvariantError(
            "scatter precondition violated: "
            f"na={int(counts[bad, CODE_ALPHA])} > ne={int(counts[bad, CODE_EPS])} "
            f"(block {bad}, eq. (3) of the paper)"
        )
    blocks, n = codes.shape
    if tab is None:
        tab = shape_tables(blocks, n)
    starts = tab.level_start
    flat = codes.reshape(-1)

    # ---- forward: signed surplus d and dominating type t (1 = alpha)
    # of every node below the roots, leaves up.
    d = (flat == CODE_ALPHA).astype(np.int64) - (flat == CODE_EPS)
    t = flat == CODE_ALPHA
    d_levels, t_levels = [d], [t]
    for _ in range(len(starts) - 2):
        d = d[0::2] + d[1::2]
        t = np.where(d == 0, t[0::2], d > 0)
        d_levels.append(d)
        t_levels.append(t)
    # Children of every internal node, level-major: child pairs line up
    # with the node order of ShapeTables.
    d_child = np.concatenate(d_levels[::-1])
    t_child = np.concatenate(t_levels[::-1])
    l0, l1 = np.abs(d_child[0::2]), np.abs(d_child[1::2])
    t0 = t_child[0::2]
    same = t0 == t_child[1::2]
    upper_dominates = l0 >= l1
    l_out = np.abs(l0 - l1)

    # ---- backward: child starts (mod n/2) are the node start plus
    # Lemma 1: (0, l0); Lemmas 2/4 (l0 >= l1): (0, l_out);
    # Lemmas 3/5 (l0 < l1): (l_out, 0).
    delta0 = np.where(same | upper_dominates, 0, l_out)
    delta1 = np.where(same, l0, np.where(upper_dominates, l_out, 0))
    deltas = np.stack([delta0, delta1], axis=1).reshape(-1)
    acc = [np.asarray(s_vals, dtype=np.int64)]
    for k in range(len(starts) - 2):
        acc.append(np.repeat(acc[-1], 2) + deltas[2 * starts[k]:2 * starts[k + 1]])
    half = tab.node_half
    s = np.concatenate(acc) % (2 * half)
    s0 = (s + delta0) % half
    s1 = (s + delta1) % half

    # ---- settings (Table 5 compact form): a circular block
    # [blk_s, blk_s + blk_l) of blk_val switches, pre_val before it and
    # post_val after it.  Lemma 1: W(0, s1; 1 - b, b).  Elimination
    # lemmas: the dominated half's block broadcasts (upper broadcast
    # when the upper child is alpha-dominated); the unicast values
    # around it depend on where [s, s + l_out) falls.
    b = ((s + l0) // half) & 1
    u = (~upper_dominates).astype(np.int64)
    s_end = s + l_out
    ends_upper = s_end < half
    starts_upper = s < half
    pre_e = u ^ (~ends_upper & (starts_upper | (s_end < 2 * half)))
    post_e = u ^ ~starts_upper
    src, role = compose_stages(
        tab,
        np.where(same, 0, np.where(upper_dominates, s1, s0)),
        np.where(same, s1, np.where(upper_dominates, l1, l0)),
        np.where(same, b, int(SwitchSetting.LOWER_BCAST) - t0),
        np.where(same, 1 - b, pre_e),
        np.where(same, 1 - b, post_e),
    )

    # Broadcast sanity (Theorem 2's invariant): every split source must
    # actually be an alpha cell.
    if np.any(flat[src[role != 0]] != CODE_ALPHA):
        raise RoutingInvariantError(
            "scatter kernel produced a broadcast from a non-alpha cell"
        )
    return ScatterGather(src=src, role=role)


def fast_scatter_gather_batch(
    codes: np.ndarray,
    s=0,
    *,
    require_bsn_precondition: bool = True,
) -> ScatterGather:
    """Compile a batch of scatter passes into one flat gather.

    Args:
        codes: ``(blocks, n')`` matrix of scatter tag codes
            (:data:`CODE_ZERO` .. :data:`CODE_EPS`) — one row per
            independent scatter network.
        s: per-block target starting position of the residual block
            (scalar or ``(blocks,)``).
        require_bsn_precondition: validate eq. (3) — ``na <= ne`` — per
            block, as the reference :func:`repro.rbn.scatter.scatter`
            does by default.

    Returns:
        A :class:`ScatterGather` in *flat* coordinates over the
        row-major ``blocks * n'`` layout (each block gathers only from
        itself).

    Raises:
        RoutingInvariantError: if a block violates eq. (3) while the
            precondition is required.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError(f"expected a (blocks, n) matrix, got shape {codes.shape}")
    blocks, n = codes.shape
    check_network_size(n)
    s_vals = np.broadcast_to(np.asarray(s, dtype=np.int64), (blocks,))
    if np.any((s_vals < 0) | (s_vals >= n)):
        raise ValueError(f"s={s} out of range [0, {n})")
    counts = block_counts(codes, CODE_EPS + 1) if require_bsn_precondition else None
    return scatter_gather(codes, s_vals, counts)


def fast_scatter_gather(
    codes: np.ndarray,
    s: int = 0,
    *,
    require_bsn_precondition: bool = True,
) -> ScatterGather:
    """Compile one scatter pass (single network) into a gather.

    See :func:`fast_scatter_gather_batch`; this is the ``blocks == 1``
    convenience entry point mirroring
    :func:`repro.rbn.scatter.scatter`'s signature.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise ValueError(f"expected a flat code vector, got shape {codes.shape}")
    return fast_scatter_gather_batch(
        codes[None, :], int(s), require_bsn_precondition=require_bsn_precondition
    )


def fast_scatter_cells(
    cells: Sequence[Cell],
    s: int = 0,
    *,
    require_bsn_precondition: bool = True,
) -> List[Cell]:
    """Fast-path replacement for :func:`repro.rbn.scatter.scatter`.

    Routes one frame through the scatter network via the compiled
    gather; produces byte-identical cells (same objects for unicast
    moves, identical split pairs for alphas) at identical positions.
    """
    codes = scatter_codes_of_cells(cells)
    gather = fast_scatter_gather(
        codes, s, require_bsn_precondition=require_bsn_precondition
    )
    return gather.apply(cells)
