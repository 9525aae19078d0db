"""Static wear leveling: migrate cold data off young blocks.

Greedy GC alone concentrates erases on blocks holding hot data; blocks
full of cold (never-overwritten) data are never erased and their wear
headroom is wasted.  The static wear leveler periodically compares the
device's erase-count spread and, when it exceeds ``threshold`` cycles,
migrates the valid pages of the *coldest* FULL block (fewest erases,
stale data) so its block returns to the free pool and absorbs future
erases.

The migration datapath is the architecture's GC move -- on a decoupled
SSD, wear-leveling traffic rides the fNoC exactly like copybacks, one
more front-end load the dSSD removes.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import ConfigError, MappingError
from ..flash import FlashBackend
from ..sim import Simulator
from .blocks import BlockManager, FULL
from .mapping import PageMappingTable

__all__ = ["StaticWearLeveler"]


class StaticWearLeveler:
    """Background erase-count balancing over the block population."""

    def __init__(self, sim: Simulator, mapping: PageMappingTable,
                 blocks: BlockManager, backend: FlashBackend, datapath,
                 interval_us: float = 10_000.0, threshold: int = 8,
                 max_migrations_per_round: int = 4,
                 min_free_fraction: float = 0.15):
        if interval_us <= 0:
            raise ConfigError(f"interval must be positive: {interval_us}")
        if threshold < 1:
            raise ConfigError(f"threshold must be >= 1: {threshold}")
        if max_migrations_per_round < 1:
            raise ConfigError("max_migrations_per_round must be >= 1")
        self.sim = sim
        self.mapping = mapping
        self.blocks = blocks
        self.backend = backend
        self.datapath = datapath
        self.interval_us = interval_us
        self.threshold = threshold
        self.max_migrations_per_round = max_migrations_per_round
        self.min_free_fraction = min_free_fraction
        self.migrations = 0
        self.aborted_migrations = 0
        self.pages_migrated = 0
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
            # Leveling is a luxury: never compete with GC for the last
            # free blocks.
            if self.blocks.free_fraction < self.min_free_fraction:
                continue
            if self.erase_spread() < self.threshold:
                continue
            for _ in range(self.max_migrations_per_round):
                if self.blocks.free_fraction < self.min_free_fraction:
                    break
                victim = self.coldest_victim()
                if victim is None:
                    break
                yield from self._migrate_block(victim)

    def _migrate_block(self, victim: int) -> Generator:
        """Move block *victim*'s valid pages and recycle the block."""
        blocks = self.blocks
        blocks.claim_for_collection(victim)
        for src in blocks.valid_pages_of(victim):
            if self.mapping.reverse_lookup(src) is None:
                blocks.invalidate(src)
                continue
            try:
                dst = blocks.allocate_page(for_gc=True)
            except MappingError:
                # Pool emptied under us: abort and retry another round.
                blocks.unclaim(victim)
                self.aborted_migrations += 1
                return
            yield from self.datapath.gc_move(blocks.page_addr(src),
                                             blocks.page_addr(dst))
            moved = self.mapping.reverse_lookup(src) is not None
            if moved:
                self.mapping.move(src, dst)
                self.pages_migrated += 1
            blocks.commit_page(dst, valid=moved)
            blocks.invalidate(src)
        victim_addr = blocks.info(victim).addr
        yield from self.datapath.gc_erase(victim_addr)
        reliability = getattr(self.datapath, "reliability", None)
        verdict = "ok"
        if reliability is not None:
            verdict = reliability.after_erase(victim_addr)
        if verdict != "retired":
            blocks.release_block(victim)
        self.migrations += 1
