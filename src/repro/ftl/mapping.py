"""Page-level address translation (LPN -> PPN) with reverse lookup.

The mapping table is the FTL's core state: logical page numbers map to
physical page numbers; the reverse map lets garbage collection find the
LPN of a valid physical page it is about to move.

Both directions are dense, fixed-length ``array('i')`` tables, one
4-byte slot per page, with ``-1`` marking "unmapped".  The device sizes
them to ``geometry.pages_total`` at construction: the logical space
never exceeds the physical one, so that one length covers LPNs and
PPNs alike.  On the default device the two tables take 1.3 MB where a
pair of dicts with an int object per entry took about 7 MB.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import MappingError

__all__ = ["PageMappingTable"]

#: Table value of an unmapped slot.
UNMAPPED = -1


class PageMappingTable:
    """Bidirectional LPN <-> PPN map over ``pages`` slots each way.

    ``forward[lpn]`` is the PPN holding *lpn* and ``reverse[ppn]`` the
    LPN stored at *ppn*, each ``-1`` (``UNMAPPED``) when empty.  Any index
    outside ``[0, pages)`` raises :class:`MappingError`; a negative one
    never wraps round to the end of a table.  ``len()`` is a count kept
    by every update.

    Invariant (checked by :meth:`check_consistency`): the two tables
    are exact mirrors -- ``reverse[forward[lpn]] == lpn`` for every
    mapped LPN, and the other way round.
    """

    def __init__(self, pages: int) -> None:
        if not 0 <= pages < 2 ** 31:
            raise MappingError(f"table size {pages} out of range "
                               f"[0, 2**31)")
        self.pages = pages
        self._forward = array("i", [UNMAPPED]) * pages
        self._reverse = array("i", [UNMAPPED]) * pages
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes held by the two tables' buffers."""
        return (memoryview(self._forward).nbytes
                + memoryview(self._reverse).nbytes)

    def _range_error(self, *named: Tuple[str, int]) -> MappingError:
        """The error for the first ``(kind, index)`` outside the table."""
        for kind, index in named:
            if not 0 <= index < self.pages:
                break
        return MappingError(f"{kind} {index} out of range "
                            f"[0, {self.pages})")

    def lookup(self, lpn: int) -> Optional[int]:
        """PPN currently holding *lpn*, or None if unmapped."""
        if lpn < 0:
            raise self._range_error(("lpn", lpn))
        try:
            ppn = self._forward[lpn]
        except IndexError:
            raise self._range_error(("lpn", lpn)) from None
        return None if ppn < 0 else ppn

    def reverse_lookup(self, ppn: int) -> Optional[int]:
        """LPN stored at *ppn*, or None if the page holds no valid data."""
        if ppn < 0:
            raise self._range_error(("ppn", ppn))
        try:
            lpn = self._reverse[ppn]
        except IndexError:
            raise self._range_error(("ppn", ppn)) from None
        return None if lpn < 0 else lpn

    def items(self) -> Iterator[Tuple[int, int]]:
        """Every mapped ``(lpn, ppn)`` pair, in ascending LPN order."""
        for lpn, ppn in enumerate(self._forward):
            if ppn >= 0:
                yield lpn, ppn

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map *lpn* to *ppn*; returns the invalidated previous PPN.

        Raises :class:`MappingError` if *ppn* already holds another LPN
        (physical pages are write-once until erased).
        """
        forward, reverse = self._forward, self._reverse
        try:
            # A negative index would wrap round to the table's end.
            if lpn < 0 or ppn < 0:
                raise IndexError
            old_ppn = forward[lpn]
            existing_lpn = reverse[ppn]
        except IndexError:
            raise self._range_error(("lpn", lpn), ("ppn", ppn)) from None
        if existing_lpn >= 0 and existing_lpn != lpn:
            raise MappingError(
                f"ppn {ppn} already holds lpn {existing_lpn}"
            )
        forward[lpn] = ppn
        reverse[ppn] = lpn
        if old_ppn < 0:
            self._count += 1
            return None
        if old_ppn != ppn:
            reverse[old_ppn] = UNMAPPED
        return old_ppn

    def bind_run(self, first_lpn: int, ppns: Sequence[int]) -> None:
        """Map the fresh LPNs ``first_lpn, first_lpn + 1, ...`` to *ppns*.

        The bulk form of :meth:`bind` for pre-conditioning.  Every LPN
        of the run and every PPN in *ppns* must be in range and unbound,
        and no PPN may repeat: otherwise :class:`MappingError` is raised
        and the table is left unchanged.
        """
        count = len(ppns)
        if count == 0:
            return
        end_lpn = first_lpn + count
        low, high = min(ppns), max(ppns)
        if first_lpn < 0 or end_lpn > self.pages or low < 0 \
                or high >= self.pages:
            raise self._range_error(("lpn", first_lpn), ("lpn", end_lpn - 1),
                                    ("ppn", low), ("ppn", high))
        forward, reverse = self._forward, self._reverse
        # Each check runs in C, with no Python frame per page: slice
        # counts, a set size and, unless the run's whole PPN span is
        # unmapped (always so in a prefill), one itemgetter read of
        # every PPN's reverse slot (a one-item getter returns the bare
        # value, not a tuple).
        if forward[first_lpn:end_lpn].count(UNMAPPED) != count:
            raise MappingError(f"bind_run over a bound lpn in "
                               f"[{first_lpn}, {end_lpn})")
        if reverse[low:high + 1].count(UNMAPPED) != high + 1 - low:
            held = (itemgetter(*ppns)(reverse) if count > 1
                    else (reverse[low],))
            if max(held) >= 0:
                raise MappingError("bind_run onto a ppn that holds an lpn")
        if len(set(ppns)) != count:
            raise MappingError("bind_run maps two lpns to one ppn")
        forward[first_lpn:end_lpn] = array("i", ppns)
        for ppn, lpn in zip(ppns, range(first_lpn, end_lpn)):
            reverse[ppn] = lpn
        self._count += count

    def unbind(self, lpn: int) -> Optional[int]:
        """Drop *lpn*'s mapping (trim); returns the freed PPN if any."""
        ppn = self.lookup(lpn)
        if ppn is not None:
            self._forward[lpn] = UNMAPPED
            self._reverse[ppn] = UNMAPPED
            self._count -= 1
        return ppn

    def move(self, old_ppn: int, new_ppn: int) -> int:
        """Rebind the LPN at *old_ppn* to *new_ppn* (GC page move).

        Returns the LPN moved.  Raises :class:`MappingError` if
        *old_ppn* holds no valid page or *new_ppn* is occupied.
        """
        reverse = self._reverse
        try:
            # A negative index would wrap round to the table's end.
            if old_ppn < 0 or new_ppn < 0:
                raise IndexError
            lpn = reverse[old_ppn]
            occupant = reverse[new_ppn]
        except IndexError:
            raise self._range_error(("ppn", old_ppn),
                                    ("ppn", new_ppn)) from None
        if lpn < 0:
            raise MappingError(f"move from invalid ppn {old_ppn}")
        if occupant >= 0:
            raise MappingError(f"move to occupied ppn {new_ppn}")
        reverse[old_ppn] = UNMAPPED
        self._forward[lpn] = new_ppn
        reverse[new_ppn] = lpn
        return lpn

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint of the forward map (reverse is derived).

        Emitted as ``[lpn, ppn]`` pairs in ascending LPN order.
        """
        return {"forward": [[lpn, ppn] for lpn, ppn in self.items()]}

    def load_state(self, state: dict) -> None:
        """Rebuild both tables from a :meth:`state_dict` checkpoint.

        Raises :class:`MappingError`, leaving the table unchanged, when
        an index is out of range or an LPN or a PPN appears twice.
        """
        pages = self.pages
        forward = array("i", [UNMAPPED]) * pages
        reverse = array("i", [UNMAPPED]) * pages
        pairs = state["forward"]
        for lpn, ppn in pairs:
            lpn, ppn = int(lpn), int(ppn)
            if not (0 <= lpn < pages and 0 <= ppn < pages):
                raise self._range_error(("lpn", lpn), ("ppn", ppn))
            if forward[lpn] >= 0:
                raise MappingError(f"restored mapping repeats lpn {lpn}")
            if reverse[ppn] >= 0:
                raise MappingError(f"restored mapping repeats ppn {ppn}")
            forward[lpn] = ppn
            reverse[ppn] = lpn
        self._forward, self._reverse = forward, reverse
        self._count = len(pairs)

    def check_consistency(self) -> None:
        """Verify the mirror invariant and the count (test/debug helper)."""
        forward, reverse = self._forward, self._reverse
        mapped = 0
        for lpn, ppn in enumerate(forward):
            if ppn < 0:
                continue
            mapped += 1
            if ppn >= self.pages or reverse[ppn] != lpn:
                raise MappingError(f"mirror broken at lpn {lpn} / ppn {ppn}")
        for ppn, lpn in enumerate(reverse):
            if lpn >= 0 and (lpn >= self.pages or forward[lpn] != ppn):
                raise MappingError(f"mirror broken at ppn {ppn} / lpn {lpn}")
        held = self.pages - reverse.count(UNMAPPED)
        if not mapped == held == self._count:
            raise MappingError(
                f"map sizes differ: {mapped} forward vs {held} reverse, "
                f"count {self._count}"
            )
