"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.multicast import MulticastAssignment
from repro.core.tags import Tag


def make_random_assignment(n: int, rng: random.Random) -> MulticastAssignment:
    """A uniformly random valid multicast assignment (test helper)."""
    outs = list(range(n))
    rng.shuffle(outs)
    k = rng.randrange(0, n + 1)
    used = outs[:k]
    ins = list(range(n))
    rng.shuffle(ins)
    dests: List[Optional[List[int]]] = [None] * n
    i = 0
    while used:
        take = rng.randrange(1, len(used) + 1)
        dests[ins[i]] = used[:take]
        used = used[take:]
        i += 1
    return MulticastAssignment(n, dests)


def assert_same_plan(batched, single) -> None:
    """Two compiled FramePlans agree in every field the compiler derives
    (test helper)."""
    assert batched.n == single.n
    assert batched.delivery_src.dtype == single.delivery_src.dtype
    assert np.array_equal(batched.delivery_src, single.delivery_src)
    assert not batched.delivery_src.flags.writeable
    assert len(batched.bsn_counts) == len(single.bsn_counts)
    for got, want in zip(batched.bsn_counts, single.bsn_counts):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert batched.final_switches == single.final_switches
    assert batched.lost_outputs == single.lost_outputs
    assert batched.flaky_exposure == single.flaky_exposure
    assert batched.fault_hits == single.fault_hits
    assert batched.total_splits == single.total_splits
    assert batched.switch_ops == single.switch_ops


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for non-hypothesis randomized tests."""
    return random.Random(0xBA27)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def sizes(min_m: int = 1, max_m: int = 6) -> st.SearchStrategy[int]:
    """Network sizes 2^min_m .. 2^max_m."""
    return st.integers(min_value=min_m, max_value=max_m).map(lambda m: 1 << m)


@st.composite
def assignments(draw, min_m: int = 1, max_m: int = 5) -> MulticastAssignment:
    """Random valid multicast assignments as a hypothesis strategy."""
    n = draw(sizes(min_m, max_m))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return make_random_assignment(n, random.Random(seed))


@st.composite
def bsn_tag_vectors(draw, min_m: int = 1, max_m: int = 5) -> List[Tag]:
    """Tag vectors satisfying the BSN input constraints (eqs. 1-3)."""
    n = draw(sizes(min_m, max_m))
    half = n // 2
    # Draw alpha count first, then fit 0s and 1s under the constraint.
    na = draw(st.integers(min_value=0, max_value=half))
    n0 = draw(st.integers(min_value=0, max_value=half - na))
    n1 = draw(st.integers(min_value=0, max_value=half - na))
    ne = n - n0 - n1 - na
    if ne < na:  # eq. (3) follows from (1)+(2); keep explicit guard
        n0 = min(n0, half - na)
        ne = n - n0 - n1 - na
    tags = (
        [Tag.ZERO] * n0 + [Tag.ONE] * n1 + [Tag.ALPHA] * na + [Tag.EPS] * ne
    )
    perm = draw(st.permutations(tags))
    return list(perm)


@st.composite
def binary_tag_vectors(draw, min_m: int = 1, max_m: int = 6) -> List[Tag]:
    """Arbitrary 0/1 tag vectors (for bit sorting)."""
    n = draw(sizes(min_m, max_m))
    return draw(
        st.lists(
            st.sampled_from([Tag.ZERO, Tag.ONE]), min_size=n, max_size=n
        )
    )
