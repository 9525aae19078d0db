"""Static wear leveling: migrate cold data off young blocks.

Greedy GC alone concentrates erases on blocks holding hot data; blocks
full of cold (never-overwritten) data are never erased and their wear
headroom is wasted.  The static wear leveler periodically compares the
device's erase-count spread and, when it exceeds ``threshold`` cycles,
relocates the *coldest* FULL block (fewest erases, stale data) so it
returns to the free pool and absorbs future erases.

The relocation is the garbage collector's own evacuate and finish
steps, so its page moves, erases and reliability verdicts are metered
in :class:`~repro.ftl.gc.GcStats`.  On a decoupled SSD, wear-leveling
traffic rides the fNoC exactly like copybacks, one more front-end load
the dSSD removes.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import ConfigError
from ..flash import FlashBackend
from ..sim import Simulator
from .blocks import BlockManager, FULL

__all__ = ["StaticWearLeveler"]

#: Blocks relocated at most per leveling round.
_MAX_MIGRATIONS_PER_ROUND = 4

#: Leveling is a luxury: below this free fraction it never competes
#: with GC for the last free blocks.
_MIN_FREE_FRACTION = 0.15


class StaticWearLeveler:
    """Background erase-count balancing over the block population."""

    def __init__(self, sim: Simulator, blocks: BlockManager,
                 backend: FlashBackend, gc,
                 interval_us: float = 10_000.0, threshold: int = 8):
        if interval_us <= 0:
            raise ConfigError(f"interval must be positive: {interval_us}")
        if threshold < 1:
            raise ConfigError(f"threshold must be >= 1: {threshold}")
        self.sim = sim
        self.blocks = blocks
        self.backend = backend
        self.gc = gc
        self.interval_us = interval_us
        self.threshold = threshold
        self.migrations = 0
        self.rounds = 0
        self._running = False

    def start(self) -> None:
        """Launch the background leveling process (idempotent)."""
        if not self._running:
            self._running = True
            self.sim.process(self._loop(), name="wear_leveler")

    def erase_spread(self) -> int:
        """Max minus min erase count across non-bad, non-spare blocks."""
        counts = [
            self.backend.erase_count(info.addr)
            for info in self.blocks.blocks.values()
            if info.state not in ("bad", "spare")
        ]
        if not counts:
            return 0
        return max(counts) - min(counts)

    def coldest_victim(self) -> Optional[int]:
        """Index of the FULL block with the lowest erase count and no
        pending pages."""
        best = None
        best_count = None
        for index, info in self.blocks.blocks.items():
            if info.state != FULL or info.pending > 0:
                continue
            count = self.backend.erase_count(info.addr)
            if best_count is None or count < best_count:
                best, best_count = index, count
        return best

    # -- background process ------------------------------------------------

    def _loop(self) -> Generator:
        while True:
            yield self.sim.timeout(self.interval_us)
            self.rounds += 1
            if self.blocks.free_fraction < _MIN_FREE_FRACTION:
                continue
            if self.erase_spread() < self.threshold:
                continue
            for _ in range(_MAX_MIGRATIONS_PER_ROUND):
                if self.blocks.free_fraction < _MIN_FREE_FRACTION:
                    break
                victim = self.coldest_victim()
                if victim is None:
                    break
                yield from self.gc.evacuate(victim)
                yield from self.gc.finish(victim)
                self.migrations += 1
