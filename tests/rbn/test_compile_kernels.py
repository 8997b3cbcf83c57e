"""Block-batched compile kernels vs the per-switch reference RBNs.

The plan compiler runs each BRSMN level as ``blocks`` side-by-side
networks in one call of each kernel: the scatter gather (Tables 4/5),
the Theorem 1 bit sort (a closed form over ranks) and the Table 6
epsilon division.  Every row of a batch must equal the reference pass
on that row alone
(:func:`~repro.rbn.scatter.scatter`,
:func:`~repro.rbn.bitsort.route_to_compact`,
:func:`~repro.rbn.quasisort.divide_epsilons`) for n = 2 .. 1024,
blocks in {1, 2, 8}, random per-block start positions and the extreme
rows (all epsilon, the most alphas eq. (2) allows, full load).  The
invariant checks keep their messages, and the memoised index tables
stay within their memory budget.  Only the scatter expands switch
stages: a compile at n = 2^m composes stages once per level.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastplan
from repro.core.fastplan import compile_frame_plan, compile_level_gather
from repro.core.tags import Tag
from repro.errors import RoutingInvariantError
from repro.rbn import fast, fast_scatter
from repro.rbn.bitsort import route_to_compact
from repro.rbn.cells import Cell
from repro.rbn.fast import (
    divide_epsilons,
    fast_divide_epsilons_batch,
    fast_sort_permutation_batch,
    shape_tables,
)
from repro.rbn.fast_scatter import (
    CODE_ALPHA,
    CODE_EPS,
    CODE_ONE,
    CODE_ZERO,
    ScatterGather,
    fast_scatter_gather_batch,
)
from repro.rbn.quasisort import divide_epsilons as ref_divide_epsilons
from repro.rbn.scatter import scatter
from repro.workloads.random_assignments import random_multicast

SIZES = [2 ** k for k in range(1, 11)]
BLOCKS = [1, 2, 8]
_TAG_OF_CODE = (Tag.ZERO, Tag.ONE, Tag.ALPHA, Tag.EPS)


def _scatter_rows(n, blocks, rng):
    """BSN-valid scatter code rows: random, all-eps, max-alpha, full."""
    half = n // 2
    rows = []
    for b in range(blocks):
        kind = b % 4
        if kind == 1:
            counts = (0, 0, 0, n)  # all epsilon
        elif kind == 2:
            counts = (0, 0, half, half)  # na = n/2: eq. (2) at its limit
        elif kind == 3:
            counts = (half, half, 0, 0)  # full load, no epsilon
        else:
            na = rng.randrange(half + 1)
            n0 = rng.randrange(half - na + 1)
            n1 = rng.randrange(half - na + 1)
            counts = (n0, n1, na, n - n0 - n1 - na)
        row = [c for c, k in enumerate(counts) for _ in range(k)]
        rng.shuffle(row)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _cells(codes):
    cells = []
    for i, c in enumerate(codes.tolist()):
        tag = _TAG_OF_CODE[c]
        if tag is Tag.ALPHA:
            cells.append(Cell(tag, data=i, branch0=(i, 0), branch1=(i, 1)))
        elif tag is Tag.EPS:
            cells.append(Cell(tag))
        else:
            cells.append(Cell(tag, data=i))
    return cells


def _cases(fn_seed):
    for n in SIZES:
        for blocks in BLOCKS:
            if n == 1024 and blocks == 8:
                continue  # the reference pass is slow; 1024 x 2 covers it
            yield n, blocks, random.Random(fn_seed * 7919 + n * 31 + blocks)


@pytest.mark.parametrize(
    "n,blocks,rng", list(_cases(1)), ids=lambda v: str(v) if isinstance(v, int) else ""
)
def test_scatter_batch_matches_reference(n, blocks, rng):
    codes = _scatter_rows(n, blocks, rng)
    s = np.array([rng.randrange(n) for _ in range(blocks)])
    gather = fast_scatter_gather_batch(codes, s)
    for b in range(blocks):
        lo, hi = b * n, (b + 1) * n
        row = ScatterGather(src=gather.src[lo:hi] - lo, role=gather.role[lo:hi])
        cells = _cells(codes[b])
        got, want = row.apply(cells), scatter(cells, int(s[b]))
        assert [(c.tag, c.data) for c in got] == [(c.tag, c.data) for c in want]


def _reference_sort(gamma_row, s):
    cells = [Cell(Tag.ONE if g else Tag.ZERO, data=i)
             for i, g in enumerate(gamma_row)]
    want = route_to_compact(cells, s, lambda t: t is Tag.ONE)
    return [c.data for c in want]


@pytest.mark.parametrize(
    "n,blocks,rng", list(_cases(2)), ids=lambda v: str(v) if isinstance(v, int) else ""
)
def test_sort_batch_matches_reference(n, blocks, rng):
    gamma = np.array(
        [[rng.randrange(2) for _ in range(n)] for _ in range(blocks)]
    )
    gamma[0] = 1  # a full row
    if blocks > 1:
        gamma[1] = 0  # an empty row
    s = np.array([rng.randrange(n) for _ in range(blocks)])
    perm = fast_sort_permutation_batch(gamma, s)
    for b in range(blocks):
        assert perm[b].tolist() == _reference_sort(gamma[b].tolist(), int(s[b]))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_sort_closed_form_exhaustive(n):
    """Every gamma vector and every start ``s``, as one batch."""
    rows = [(g, s) for g in itertools.product((0, 1), repeat=n)
            for s in range(n)]
    gamma = np.array([g for g, _ in rows])
    s_vals = np.array([s for _, s in rows])
    perm = fast_sort_permutation_batch(gamma, s_vals)
    for b, (g, s) in enumerate(rows):
        assert perm[b].tolist() == _reference_sort(g, s), (g, s)


@st.composite
def _sort_batches(draw):
    n = 2 ** draw(st.integers(1, 10))
    blocks = draw(st.sampled_from(BLOCKS))
    kinds = st.sampled_from(("random", "all", "none"))
    gamma = []
    for _ in range(blocks):
        kind = draw(kinds)
        if kind == "random":
            seed = draw(st.integers(0, 2 ** 32 - 1))
            row = np.random.default_rng(seed).integers(0, 2, n).tolist()
        else:
            row = [int(kind == "all")] * n
        gamma.append(row)
    s = draw(st.lists(st.integers(0, n - 1), min_size=blocks, max_size=blocks))
    return np.array(gamma), np.array(s)


@settings(max_examples=40, deadline=None)
@given(_sort_batches())
def test_sort_closed_form_matches_reference(batch):
    gamma, s = batch
    perm = fast_sort_permutation_batch(gamma, s)
    for b in range(gamma.shape[0]):
        assert perm[b].tolist() == _reference_sort(gamma[b].tolist(), int(s[b]))


@pytest.mark.parametrize("m", [2, 5, 10])
def test_only_the_scatter_composes_stages(monkeypatch, m):
    """A compile at n = 2^m expands switch stages once per level
    (m - 1 levels), all from the scatter: the bit sort stays closed
    form."""
    calls = []
    compose = fast.compose_stages

    def counted(*args):
        calls.append(None)
        return compose(*args)

    monkeypatch.setattr(fast, "compose_stages", counted)
    monkeypatch.setattr(fast_scatter, "compose_stages", counted)
    compile_frame_plan(random_multicast(2 ** m, load=1.0, seed=m))
    assert len(calls) == m - 1


@pytest.mark.parametrize(
    "n,blocks,rng", list(_cases(3)), ids=lambda v: str(v) if isinstance(v, int) else ""
)
def test_epsilon_division_batch_matches_reference(n, blocks, rng):
    half = n // 2
    rows = []
    for b in range(blocks):
        n0, n1 = [(rng.randrange(half + 1), rng.randrange(half + 1)),
                  (0, 0), (half, half), (half, 0)][b % 4]
        row = [0] * n0 + [1] * n1 + [2] * (n - n0 - n1)
        rng.shuffle(row)
        rows.append(row)
    codes = np.array(rows, dtype=np.int64)
    divided = fast_divide_epsilons_batch(codes)
    tag_of = {0: Tag.ZERO, 1: Tag.ONE, 2: Tag.EPS}
    code_of = {Tag.ZERO: 0, Tag.ONE: 1, Tag.EPS0: 3, Tag.EPS1: 4}
    for b in range(blocks):
        want = ref_divide_epsilons([Cell(tag_of[c]) for c in rows[b]])
        assert divided[b].tolist() == [code_of[c.tag] for c in want]


# ---- invariant checks keep their messages ---------------------------


def test_eq2_violation_message():
    codes = np.array([[CODE_EPS] * 4, [CODE_ALPHA, CODE_ZERO, CODE_ZERO, CODE_EPS]])
    with pytest.raises(
        RoutingInvariantError,
        match=r"^BSN input constraint \(eq\. 2\) violated: n0=2, n1=0, na=1, "
        r"n/2=2 \(block 1\)$",
    ):
        compile_level_gather(codes)


def test_eq3_violation_message():
    codes = np.array([[CODE_ALPHA, CODE_ALPHA, CODE_ALPHA, CODE_EPS]])
    with pytest.raises(
        RoutingInvariantError,
        match=r"^scatter precondition violated: na=3 > ne=1 \(block 0, "
        r"eq\. \(3\) of the paper\)$",
    ):
        fast_scatter_gather_batch(codes, 0)
    # Without the precondition the same codes compile.
    fast_scatter_gather_batch(codes, 0, require_bsn_precondition=False)


def test_quasisort_precondition_message():
    codes = np.array([[0, 1, 2, 2], [1, 1, 1, 0]])
    with pytest.raises(
        RoutingInvariantError,
        match=r"^quasisort precondition violated: n0=1, n1=3 \(block 1\)$",
    ):
        fast_divide_epsilons_batch(codes)


def test_negative_epsilon_division_message():
    # Counts inconsistent with the codes: no epsilon claimed, so the
    # dummy-1 demand n/2 - n1 = 1 leaves e0 = -1.
    with pytest.raises(
        RoutingInvariantError, match=r"^epsilon-division counts went negative$"
    ):
        divide_epsilons(np.array([[0, 1, 2, 2]]), np.array([[1, 1, 0]]))


def test_broadcast_from_non_alpha_cell(monkeypatch):
    codes = np.array([CODE_ALPHA, CODE_EPS, CODE_ZERO, CODE_ONE])
    gather = fast_scatter_gather_batch(codes[None, :], 0)
    cells = _cells(codes)
    cells[0] = Cell(Tag.ZERO, data=0)
    with pytest.raises(
        RoutingInvariantError, match=r"^broadcast output \d gathers from a "
    ):
        gather.apply(cells)

    compose = fast_scatter.compose_stages

    def broadcast_everything(*args, **kwargs):
        src, role = compose(*args, **kwargs)
        return src, np.ones_like(role)

    monkeypatch.setattr(fast_scatter, "compose_stages", broadcast_everything)
    with pytest.raises(
        RoutingInvariantError,
        match=r"^scatter kernel produced a broadcast from a non-alpha cell$",
    ):
        fast_scatter_gather_batch(codes[None, :], 0)


def test_lost_delivery_message(monkeypatch):
    level_gather = fastplan._level_gather

    def drop_tag_one_copies(*args):
        src, role = level_gather(*args)
        return src, np.ones_like(role)  # every position "took" a tag-0 copy

    monkeypatch.setattr(fastplan, "_level_gather", drop_tag_one_copies)
    with pytest.raises(
        RoutingInvariantError,
        match=r"^fast plan lost track of a delivery while compiling$",
    ):
        compile_frame_plan(random_multicast(16, load=1.0, seed=3))


# ---- memoised index tables ------------------------------------------


def test_shape_tables_are_memoised_and_read_only():
    tables = shape_tables(4, 64)
    assert shape_tables(4, 64) is tables
    for table in tables[:-1]:
        assert table.dtype == np.int32
        with pytest.raises(ValueError):
            table[0] = 1


def test_table_memory_budget_for_n1024():
    """One n = 1024 network compiles with <= 2 MB of shape tables."""
    n = 1024
    shapes = [(n // size, size) for size in (1 << k for k in range(2, 11))]
    compile_frame_plan(random_multicast(n, load=1.0, seed=1))
    total = sum(
        table.nbytes for shape in shapes for table in shape_tables(*shape)[:-1]
    )
    assert total <= 2 * 1024 * 1024, f"shape tables take {total} bytes"
