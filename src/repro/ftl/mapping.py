"""Page-level address translation (LPN -> PPN) with reverse lookup.

The mapping table is the FTL's core state: logical page numbers map to
physical page numbers; the reverse map lets garbage collection find the
LPN of a valid physical page it is about to move.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..errors import MappingError

__all__ = ["PageMappingTable"]


class PageMappingTable:
    """Bidirectional LPN <-> PPN map.

    Invariant (checked by tests): the forward and reverse maps are exact
    mirrors -- ``reverse[forward[lpn]] == lpn`` for every mapped LPN.
    """

    def __init__(self) -> None:
        self._forward: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._forward)

    def lookup(self, lpn: int) -> Optional[int]:
        """PPN currently holding *lpn*, or None if unmapped."""
        return self._forward.get(lpn)

    def reverse_lookup(self, ppn: int) -> Optional[int]:
        """LPN stored at *ppn*, or None if the page holds no valid data."""
        return self._reverse.get(ppn)

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map *lpn* to *ppn*; returns the invalidated previous PPN.

        Raises :class:`MappingError` if *ppn* already holds another LPN
        (physical pages are write-once until erased).
        """
        existing_lpn = self._reverse.get(ppn)
        if existing_lpn is not None and existing_lpn != lpn:
            raise MappingError(
                f"ppn {ppn} already holds lpn {existing_lpn}"
            )
        old_ppn = self._forward.get(lpn)
        if old_ppn is not None:
            del self._reverse[old_ppn]
        self._forward[lpn] = ppn
        self._reverse[ppn] = lpn
        return old_ppn

    def bind_run(self, first_lpn: int, ppns: Sequence[int]) -> None:
        """Map the fresh LPNs ``first_lpn, first_lpn + 1, ...`` to *ppns*.

        The bulk form of :meth:`bind` for pre-conditioning.  Every LPN
        of the run and every PPN in *ppns* must be unbound, and no PPN
        may repeat: otherwise :class:`MappingError` is raised and the
        table is left unchanged.
        """
        # One int object per LPN, shared by both maps as in bind().
        lpns = list(range(first_lpn, first_lpn + len(ppns)))
        if not self._forward.keys().isdisjoint(lpns):
            raise MappingError(f"bind_run over a bound lpn in "
                               f"[{first_lpn}, {first_lpn + len(ppns)})")
        if not self._reverse.keys().isdisjoint(ppns):
            raise MappingError("bind_run onto a ppn that holds an lpn")
        if len(set(ppns)) != len(ppns):
            raise MappingError("bind_run maps two lpns to one ppn")
        self._forward.update(zip(lpns, ppns))
        self._reverse.update(zip(ppns, lpns))

    def unbind(self, lpn: int) -> Optional[int]:
        """Drop *lpn*'s mapping (trim); returns the freed PPN if any."""
        ppn = self._forward.pop(lpn, None)
        if ppn is not None:
            del self._reverse[ppn]
        return ppn

    def move(self, old_ppn: int, new_ppn: int) -> int:
        """Rebind the LPN at *old_ppn* to *new_ppn* (GC page move).

        Returns the LPN moved.  Raises :class:`MappingError` if
        *old_ppn* holds no valid page or *new_ppn* is occupied.
        """
        lpn = self._reverse.get(old_ppn)
        if lpn is None:
            raise MappingError(f"move from invalid ppn {old_ppn}")
        if new_ppn in self._reverse:
            raise MappingError(f"move to occupied ppn {new_ppn}")
        del self._reverse[old_ppn]
        self._forward[lpn] = new_ppn
        self._reverse[new_ppn] = lpn
        return lpn

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint of the forward map (reverse is derived).

        Emitted as sorted ``[lpn, ppn]`` pairs because JSON stringifies
        integer dict keys.
        """
        return {
            "forward": [[lpn, ppn]
                        for lpn, ppn in sorted(self._forward.items())],
        }

    def load_state(self, state: dict) -> None:
        """Rebuild both maps from a :meth:`state_dict` checkpoint."""
        self._forward = {int(lpn): int(ppn)
                         for lpn, ppn in state["forward"]}
        self._reverse = {ppn: lpn for lpn, ppn in self._forward.items()}
        if len(self._reverse) != len(self._forward):
            raise MappingError("restored mapping is not injective")

    def check_consistency(self) -> None:
        """Verify the mirror invariant (test/debug helper)."""
        if len(self._forward) != len(self._reverse):
            raise MappingError(
                f"map sizes differ: {len(self._forward)} forward vs "
                f"{len(self._reverse)} reverse"
            )
        for lpn, ppn in self._forward.items():
            if self._reverse.get(ppn) != lpn:
                raise MappingError(f"mirror broken at lpn {lpn} / ppn {ppn}")
