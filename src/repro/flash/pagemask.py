"""Per-block page sets stored as one ``int`` bitmask.

Bit ``p`` of a mask stands for page offset ``p`` of one block.  The
flash backend keeps a block's programmed pages this way and the FTL its
valid pages: one small int per block instead of a set of page offsets,
and a fully programmed block shares one immutable full mask.  A mask's
``bit_count()`` is the number of pages in the set.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, List

__all__ = ["mask_of", "offsets_of"]


def mask_of(offsets: Iterable[int]) -> int:
    """The mask with one bit set per page offset in *offsets*."""
    return reduce(or_, map((1).__lshift__, offsets), 0)


def offsets_of(mask: int) -> List[int]:
    """Page offsets set in *mask*, in ascending order."""
    offsets = []
    while mask:
        low = mask & -mask
        offsets.append(low.bit_length() - 1)
        mask ^= low
    return offsets
