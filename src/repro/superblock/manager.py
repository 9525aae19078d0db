"""Dynamic superblock manager: the paper's Fig 6 walk-through logic.

Tracks superblocks as one sub-block per channel and drives the SRT/RBT
protocol when uncorrectable errors are reported:

1. First failure with an empty RBT: the superblock is sacrificed -- the
   FTL is notified, and every *other* channel's still-good sub-block is
   deposited into that channel's RBT.
2. Later failure with a recycled block available: the controller remaps
   the dead sub-block onto the recycled block in its SRT, performs the
   internal copy via global copyback, and the FTL is never told.

A retirement frees the superblock's SRT entries and recycles only
sub-blocks never reported dead.  The manager is independent of the DES:
:mod:`.live` and the endurance simulator both drive this one copy.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import ConfigError, MappingError
from .tables import RecycleBlockTable, SuperblockRemapTable

__all__ = ["DynamicSuperblockManager", "SubBlock"]

#: A sub-block is identified by (superblock id, channel).
SubBlock = Tuple[int, int]


class DynamicSuperblockManager:
    """SRT/RBT bookkeeping over ``n_superblocks`` x ``channels``."""

    def __init__(self, n_superblocks: int, channels: int,
                 srt_capacity: Optional[int] = 1024,
                 reserved_superblocks: int = 0):
        if n_superblocks < 1 or channels < 1:
            raise ConfigError("need >= 1 superblock and channel")
        if reserved_superblocks >= n_superblocks:
            raise ConfigError("reservation must leave visible superblocks")
        self.n_superblocks = n_superblocks
        self.channels = channels
        self.visible = n_superblocks - reserved_superblocks
        self.rbt = [RecycleBlockTable(c) for c in range(channels)]
        self.srt = [SuperblockRemapTable(c, srt_capacity)
                    for c in range(channels)]
        self.alive: Set[int] = set(range(self.visible))
        self.dead_subblocks: Set[SubBlock] = set()
        self.ftl_notifications: List[int] = []
        self.copyback_requests: List[Tuple[SubBlock, SubBlock]] = []
        # Reserved superblocks pre-populate the RBTs (RESERV policy).
        for sb in range(self.visible, n_superblocks):
            for channel in range(channels):
                self.rbt[channel].add((sb, channel))

    @property
    def bad_superblocks(self) -> int:
        """Visible superblocks no longer usable."""
        return self.visible - len(self.alive)

    def resolve(self, superblock: int, channel: int) -> SubBlock:
        """Physical sub-block serving (superblock, channel) after remap."""
        return self.srt[channel].lookup((superblock, channel))

    def on_uncorrectable(self, superblock: int, channel: int) -> str:
        """Handle an ECC-uncorrectable report from one controller.

        Returns ``"remapped"`` when the superblock survives via a
        recycled block, or ``"superblock_dead"`` when it is retired
        (FTL notified, survivors recycled).
        """
        if superblock not in self.alive:
            raise MappingError(f"superblock {superblock} already dead")
        failed = self.resolve(superblock, channel)
        self.dead_subblocks.add(failed)
        replacement = self.rbt[channel].take()
        if replacement is not None:
            key = (superblock, channel)
            # A previous remap for this position must be superseded.
            self.srt[channel].remove(key)
            if self.srt[channel].insert(key, replacement):
                # Valid pages move dead -> recycled via global copyback.
                self.copyback_requests.append((failed, replacement))
                return "remapped"
            # SRT full: put the block back and retire the superblock.
            self.rbt[channel].add(replacement)
        self._retire(superblock)
        return "superblock_dead"

    def _retire(self, superblock: int) -> None:
        self.alive.discard(superblock)
        self.ftl_notifications.append(superblock)
        for channel in range(self.channels):
            sub = self.resolve(superblock, channel)
            self.srt[channel].remove((superblock, channel))
            if sub not in self.dead_subblocks:
                self.rbt[channel].add(sub)
