"""Flash device geometry and physical addressing.

The hierarchy follows the paper's Table 1 organization::

    SSD -> channel -> way (package) -> die -> plane -> block -> page

Physical page numbers (PPNs) linearize that hierarchy.  Two orders are
provided:

* *hierarchical* -- the natural nested order used to index state arrays;
* *striped* -- consecutive logical pages round-robin across channels,
  then ways, then planes, which is how the FTL allocates pages to expose
  maximum parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..errors import AddressError

__all__ = ["PhysAddr", "FlashGeometry"]


class PhysAddr(NamedTuple):
    """A fully-resolved physical page address."""

    channel: int
    way: int
    die: int
    plane: int
    block: int
    page: int

    def block_addr(self) -> "PhysAddr":
        """The same address with the page index zeroed (block identity)."""
        # tuple_new is much cheaper than namedtuple._replace on this
        # hot path (every page-state update derives the block identity).
        return tuple.__new__(PhysAddr, (self[0], self[1], self[2],
                                        self[3], self[4], 0))


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of the SSD's flash organization.

    Defaults are the paper's ULL performance-evaluation device:
    8 channels x 8 ways x 1 die x 8 planes, 1384 blocks/plane,
    384 pages/block, 4 KiB pages.

    The device totals ``dies_total``, ``planes_total``, ``blocks_total``
    and ``pages_total`` are plain attributes, set at construction.
    """

    channels: int = 8
    ways: int = 8
    dies: int = 1
    planes: int = 8
    blocks_per_plane: int = 1384
    pages_per_block: int = 384
    page_size: int = 4096

    def __post_init__(self) -> None:
        for field in ("channels", "ways", "dies", "planes",
                      "blocks_per_plane", "pages_per_block", "page_size"):
            if getattr(self, field) < 1:
                raise AddressError(f"{field} must be >= 1")
        # Computed once, since the allocator and every poll tick read
        # them, and stored beside the dataclass fields rather than as
        # fields: ==, hash, repr and asdict see only the seven above.
        dies_total = self.channels * self.ways * self.dies
        planes_total = dies_total * self.planes
        blocks_total = planes_total * self.blocks_per_plane
        object.__setattr__(self, "dies_total", dies_total)
        object.__setattr__(self, "planes_total", planes_total)
        object.__setattr__(self, "blocks_total", blocks_total)
        object.__setattr__(self, "pages_total",
                           blocks_total * self.pages_per_block)

    # -- derived sizes -------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity in bytes."""
        return self.pages_total * self.page_size

    @property
    def pages_per_plane(self) -> int:
        """Pages per plane."""
        return self.blocks_per_plane * self.pages_per_block

    @property
    def block_size(self) -> int:
        """Block size in bytes."""
        return self.pages_per_block * self.page_size

    # -- PPN <-> address -------------------------------------------------------

    def ppn_of(self, addr: PhysAddr) -> int:
        """Hierarchical linearization of a physical address."""
        self.validate(addr)
        index = addr.channel
        index = index * self.ways + addr.way
        index = index * self.dies + addr.die
        index = index * self.planes + addr.plane
        index = index * self.blocks_per_plane + addr.block
        index = index * self.pages_per_block + addr.page
        return index

    def addr_of(self, ppn: int) -> PhysAddr:
        """Inverse of :meth:`ppn_of`."""
        if not 0 <= ppn < self.pages_total:
            raise AddressError(f"ppn {ppn} out of range [0, {self.pages_total})")
        ppn, page = divmod(ppn, self.pages_per_block)
        ppn, block = divmod(ppn, self.blocks_per_plane)
        ppn, plane = divmod(ppn, self.planes)
        ppn, die = divmod(ppn, self.dies)
        channel, way = divmod(ppn, self.ways)
        return PhysAddr(channel, way, die, plane, block, page)

    # -- block-level linearization ---------------------------------------------

    def plane_index(self, addr: PhysAddr) -> int:
        """Global index of the plane containing *addr*."""
        self.validate(addr)
        index = addr.channel
        index = index * self.ways + addr.way
        index = index * self.dies + addr.die
        return index * self.planes + addr.plane

    def die_index(self, addr: PhysAddr) -> int:
        """Global index of the die containing *addr*."""
        self.validate(addr)
        index = addr.channel
        index = index * self.ways + addr.way
        return index * self.dies + addr.die

    def block_index(self, addr: PhysAddr) -> int:
        """Global index of the block containing *addr*."""
        return self.plane_index(addr) * self.blocks_per_plane + addr.block

    def block_addr_of(self, block_index: int) -> PhysAddr:
        """Inverse of :meth:`block_index` (page field is zero)."""
        if not 0 <= block_index < self.blocks_total:
            raise AddressError(
                f"block index {block_index} out of range [0, {self.blocks_total})"
            )
        return self.addr_of(block_index * self.pages_per_block)

    # -- iteration helpers ------------------------------------------------------

    def iter_dies(self) -> Iterator[PhysAddr]:
        """Yield one address (block 0, page 0) per die, in order."""
        for channel in range(self.channels):
            for way in range(self.ways):
                for die in range(self.dies):
                    yield PhysAddr(channel, way, die, 0, 0, 0)

    def iter_planes_of_die(self, die_addr: PhysAddr) -> Iterator[PhysAddr]:
        """Yield one address per plane of the die holding *die_addr*."""
        for plane in range(self.planes):
            yield die_addr._replace(plane=plane, block=0, page=0)

    def validate(self, addr: PhysAddr) -> None:
        """Raise :class:`AddressError` if *addr* is outside this geometry."""
        # Hot path: one chained comparison, no tuple construction.  The
        # readable loop below only runs to produce the error message.
        if (0 <= addr[0] < self.channels and 0 <= addr[1] < self.ways
                and 0 <= addr[2] < self.dies and 0 <= addr[3] < self.planes
                and 0 <= addr[4] < self.blocks_per_plane
                and 0 <= addr[5] < self.pages_per_block):
            return
        limits = (self.channels, self.ways, self.dies, self.planes,
                  self.blocks_per_plane, self.pages_per_block)
        for name, value, limit in zip(PhysAddr._fields, addr, limits):
            if not 0 <= value < limit:
                raise AddressError(
                    f"{name}={value} outside [0, {limit}) in {addr}"
                )

    def describe(self) -> str:
        """One-line human-readable geometry summary."""
        gib = self.capacity_bytes / (1 << 30)
        return (
            f"{self.channels}ch x {self.ways}way x {self.dies}die x "
            f"{self.planes}pl, {self.blocks_per_plane} blk/pl, "
            f"{self.pages_per_block} pg/blk, {self.page_size} B pages "
            f"({gib:.1f} GiB)"
        )
