"""2x2 switch semantics: the four legal operations of paper Fig. 3 / Fig. 7.

A 2x2 switch has two input ports (upper, lower) and two output ports.
Section 3 extends the classic parallel/crossing settings of permutation
networks with two broadcast settings used to *split* multicast cells:

* ``PARALLEL`` (paper ``r_i = 0``): upper->upper, lower->lower.
* ``CROSS``    (``r_i = 1``): upper->lower, lower->upper.
* ``UPPER_BCAST`` (``r_i = 2``): the *upper* input is replicated to both
  outputs.  Legal only when the upper input is an ``ALPHA`` cell and the
  lower input is empty; the two copies emerge tagged ``0`` and ``1``
  (Fig. 3c — "values alpha and eps on the inputs changed to 0 and 1 on
  the outputs").
* ``LOWER_BCAST`` (``r_i = 3``): symmetric, replicating the lower input
  (Fig. 3d).

The proof of Theorem 2 asserts that in this design a broadcast switch
*always* sees exactly an (alpha, eps) input pair; :func:`apply_switch`
enforces that with :class:`~repro.errors.RoutingInvariantError`, so the
whole test suite doubles as a mechanical check of the claim.
"""

from __future__ import annotations

import enum

from ..core.tags import Tag
from ..errors import RoutingInvariantError
from .cells import Cell

__all__ = [
    "SwitchSetting",
    "apply_switch",
    "legal_tag_operations",
    "is_unicast",
    "is_broadcast",
]


class SwitchSetting(enum.IntEnum):
    """Setting of one 2x2 switch; integer values match the paper's r_i."""

    PARALLEL = 0
    CROSS = 1
    UPPER_BCAST = 2
    LOWER_BCAST = 3


def is_unicast(setting: SwitchSetting) -> bool:
    """True for the two one-to-one settings (parallel / crossing)."""
    return setting in (SwitchSetting.PARALLEL, SwitchSetting.CROSS)


def is_broadcast(setting: SwitchSetting) -> bool:
    """True for the two replicating settings."""
    return setting in (SwitchSetting.UPPER_BCAST, SwitchSetting.LOWER_BCAST)


def apply_switch(
    setting: SwitchSetting, upper: Cell, lower: Cell
) -> tuple[Cell, Cell]:
    """Apply one 2x2 switch to its input cells.

    Args:
        setting: the switch setting ``r_i``.
        upper: cell on the upper input port.
        lower: cell on the lower input port.

    Returns:
        ``(upper_out, lower_out)``.  For broadcasts, the source alpha
        cell is split via :meth:`Cell.split`; the tag-0 copy goes to the
        upper output and the tag-1 copy to the lower output.

    Raises:
        RoutingInvariantError: if a broadcast setting is applied to an
            input pair other than (alpha on the broadcast port, empty on
            the other) — a state the paper proves unreachable.
    """
    if setting is SwitchSetting.PARALLEL:
        return upper, lower
    if setting is SwitchSetting.CROSS:
        return lower, upper
    if setting is SwitchSetting.UPPER_BCAST:
        src, other = upper, lower
    elif setting is SwitchSetting.LOWER_BCAST:
        src, other = lower, upper
    else:  # pragma: no cover - enum exhausts the cases
        raise ValueError(f"unknown switch setting {setting!r}")
    if src.tag is not Tag.ALPHA or not other.is_empty:
        raise RoutingInvariantError(
            "broadcast switch requires (alpha, eps) inputs, got "
            f"({src.tag}, {other.tag}) under {setting.name}"
        )
    return src.split()


def legal_tag_operations() -> list[tuple[SwitchSetting, tuple[Tag, Tag], tuple[Tag, Tag]]]:
    """Enumerate the legal tag transitions of paper Fig. 3.

    Returns a list of ``(setting, (in_upper, in_lower),
    (out_upper, out_lower))`` triples over the four base tag values:

    * parallel / crossing with any input tags, values unchanged
      (Figs. 3a/3b, "unicast with no value changed");
    * upper/lower broadcast with an (alpha, eps) pair, outputs (0, 1)
      (Figs. 3c/3d).

    The enumeration is used by the Fig. 3 bench and by tests asserting
    that :func:`apply_switch` realises exactly this relation.
    """
    base = (Tag.ZERO, Tag.ONE, Tag.ALPHA, Tag.EPS)
    ops = []
    for x in base:
        for y in base:
            ops.append((SwitchSetting.PARALLEL, (x, y), (x, y)))
            ops.append((SwitchSetting.CROSS, (x, y), (y, x)))
    ops.append(
        (SwitchSetting.UPPER_BCAST, (Tag.ALPHA, Tag.EPS), (Tag.ZERO, Tag.ONE))
    )
    ops.append(
        (SwitchSetting.LOWER_BCAST, (Tag.EPS, Tag.ALPHA), (Tag.ZERO, Tag.ONE))
    )
    return ops
