"""Live dynamic superblock management inside the DES (paper Sec 5).

Attaches the SRT/RBT machinery to a running :class:`SimulatedSSD`:

* superblocks group the same (way, die, plane, block) position across
  every channel;
* an injected uncorrectable error drives the paper's protocol -- the
  first failure retires the superblock and stocks the recycle tables;
  later failures are healed invisibly: the controller copies the dying
  sub-block's pages onto a recycled block with *global copyback* and
  installs an SRT remap, so every future FTL access to that position is
  redirected in hardware;
* the remap layer chains into the architecture datapath's ``remapper``
  hook, exactly where the Fig 15 performance experiments plug in.

The first failure's migration runs beside host writes and GC, so it
owns each sub-block first: it closes an open one to allocation and
waits until no relocation holds it and no program is in flight into
it.  The garbage collector then evacuates it, and it is marked bad.

The remap entry is installed only after the recycling copy completes,
so concurrent host reads always resolve to a programmed block.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set, Tuple

from ..errors import ConfigError, MappingError
from ..flash import PhysAddr
from ..ftl.blocks import ACTIVE, BAD, COLLECTING, FULL
from .manager import DynamicSuperblockManager

__all__ = ["LiveDynamicSuperblocks"]

#: Sub-block position within one channel.
_Pos = Tuple[int, int, int, int]


class LiveDynamicSuperblocks:
    """SRT/RBT-backed address remapping bound to a simulated SSD."""

    def __init__(self, ssd, srt_capacity: Optional[int] = 1024,
                 reserved_superblocks: int = 0):
        geometry = ssd.config.geometry
        self.ssd = ssd
        self.geometry = geometry
        self.n_superblocks = (geometry.ways * geometry.dies
                              * geometry.planes * geometry.blocks_per_plane)
        if reserved_superblocks >= self.n_superblocks:
            raise ConfigError("reservation exceeds superblock count")
        self.manager = DynamicSuperblockManager(
            self.n_superblocks, geometry.channels,
            srt_capacity=srt_capacity,
            reserved_superblocks=reserved_superblocks,
        )
        # Remaps being copied: resolve to the OLD location until done.
        self._pending: Set[Tuple[int, int]] = set()
        self.recycle_copies = 0
        self.recycled_pages_copied = 0
        self.ftl_migrations = 0

        if ssd._prefilled:
            raise ConfigError(
                "attach LiveDynamicSuperblocks before the SSD prefills"
            )
        # Reserved superblocks are invisible to the FTL from day one.
        for sb in range(self.manager.visible, self.n_superblocks):
            for channel in range(geometry.channels):
                ssd.blocks.mark_bad(self.subblock_index(sb, channel))

        self._chained = ssd.datapath.remapper
        ssd.datapath.remapper = self.remap

    # -- addressing ---------------------------------------------------------

    def superblock_of(self, addr: PhysAddr) -> int:
        """Superblock id of the block containing *addr*."""
        geometry = self.geometry
        index = addr.way
        index = index * geometry.dies + addr.die
        index = index * geometry.planes + addr.plane
        return index * geometry.blocks_per_plane + addr.block

    def subblock_addr(self, superblock: int, channel: int,
                      page: int = 0) -> PhysAddr:
        """Physical address of (superblock, channel), page 0 by default."""
        geometry = self.geometry
        index, block = divmod(superblock, geometry.blocks_per_plane)
        index, plane = divmod(index, geometry.planes)
        way, die = divmod(index, geometry.dies)
        return PhysAddr(channel, way, die, plane, block, page)

    def subblock_index(self, superblock: int, channel: int) -> int:
        """Block index of (superblock, channel) in the FTL's numbering.

        A superblock id is the block's position below its channel, so
        channel ``c``'s sub-blocks occupy indices ``c * n_superblocks``
        onwards.
        """
        return channel * self.n_superblocks + superblock

    def remap(self, addr: PhysAddr) -> PhysAddr:
        """The hardware SRT lookup applied to every flash access."""
        superblock = self.superblock_of(addr)
        key = (superblock, addr.channel)
        if key not in self._pending:
            target_sb, _ch = self.manager.resolve(superblock, addr.channel)
            if target_sb != superblock:
                addr = self.subblock_addr(target_sb, addr.channel,
                                          addr.page)
        if self._chained is not None:
            addr = self._chained(addr)
        return addr

    # -- failure protocol --------------------------------------------------------

    def inject_uncorrectable(self, superblock: int, channel: int):
        """Report an ECC-uncorrectable error; returns the handler process.

        The returned process completes once the protocol's data movement
        (recycling copyback, or FTL migration) has finished.
        """
        if superblock not in self.manager.alive:
            raise MappingError(f"superblock {superblock} is already dead")
        outcome = self.manager.on_uncorrectable(superblock, channel)
        if outcome == "remapped":
            key = (superblock, channel)
            self._pending.add(key)
            return self.ssd.sim.process(
                self._recycle_copy(key), name="recycle_copy"
            )
        return self.ssd.sim.process(
            self._retire_superblock(superblock), name="ftl_migration"
        )

    def _recycle_copy(self, key: Tuple[int, int]) -> Generator:
        """Global-copyback the dying sub-block onto its recycled block."""
        superblock, channel = key
        target_sb, _ch = self.manager.resolve(superblock, channel)
        old_block = self.subblock_addr(superblock, channel)
        new_block = self.subblock_addr(target_sb, channel)
        info = self.ssd.blocks.info(self.subblock_index(superblock, channel))
        datapath = self.ssd.datapath
        # The recycled block still holds its previous superblock's data:
        # erase it before the copyback stream programs it.
        yield from datapath.gc_erase(new_block, apply_remap=False)
        for offset in sorted(info.valid):
            src = old_block._replace(page=offset)
            dst = new_block._replace(page=offset)
            yield from datapath.gc_move(src, dst, apply_remap=False)
            self.recycled_pages_copied += 1
        # The recycled block now mirrors the dead one; activate the remap.
        datapath.backend.mark_programmed(
            [self.subblock_index(target_sb, channel)])
        self._pending.discard(key)
        self.recycle_copies += 1

    def _retire_superblock(self, superblock: int) -> Generator:
        """First-failure path: the FTL rescues the whole superblock.

        Each sub-block's ownership wait rechecks on the collector's
        ``preempt_poll_us`` grid.  A sub-block a relocation erased
        meanwhile has nothing to move.
        """
        blocks = self.ssd.blocks
        gc = self.ssd.gc
        sim = self.ssd.sim
        for channel in range(self.geometry.channels):
            block = self.subblock_index(superblock, channel)
            info = blocks.info(block)
            while True:
                if info.state == ACTIVE:
                    blocks.close_block(block)
                if info.state != COLLECTING and not info.pending:
                    break
                yield sim.timeout(gc.preempt_poll_us)
            if info.state == FULL:
                yield from gc.evacuate(block)
            if info.state != BAD:
                blocks.mark_bad(block)
        self.ftl_migrations += 1

    # -- reporting -----------------------------------------------------------------

    @property
    def bad_superblocks(self) -> int:
        """Superblocks the FTL believes are dead."""
        return self.manager.bad_superblocks

    def stats(self) -> Dict[str, int]:
        """Counters for reports and tests."""
        return {
            "bad_superblocks": self.manager.bad_superblocks,
            "recycle_copies": self.recycle_copies,
            "recycled_pages_copied": self.recycled_pages_copied,
            "ftl_migrations": self.ftl_migrations,
            "srt_active": sum(t.active_entries for t in self.manager.srt),
            "rbt_available": sum(len(r) for r in self.manager.rbt),
        }
