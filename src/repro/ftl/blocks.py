"""Physical block management: allocation, validity tracking, victims.

The block manager owns the FTL's view of every physical block: its
state (free / active / full / bad), its write pointer, and which of its
pages hold valid data.  Page allocation round-robins across planes to
expose channel/way/plane parallelism; garbage collection asks it for
greedy victims (fewest valid pages) and returns erased blocks to the
free pool.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set

from ..errors import AddressError, MappingError
from ..flash import FlashGeometry, PhysAddr
from ..flash.pagemask import mask_of, offsets_of

__all__ = ["BlockInfo", "BlockManager", "FREE", "ACTIVE", "FULL", "BAD",
           "COLLECTING", "SPARE"]

FREE = "free"
ACTIVE = "active"
FULL = "full"
BAD = "bad"
#: Transitional state: a GC or wear-leveling worker owns the block and
#: is migrating its pages; nobody else may select it.
COLLECTING = "collecting"
#: Withdrawn from the free pools as a bad-block replacement spare; the
#: FTL never addresses it directly (the reliability layer remaps onto
#: it below the FTL).
SPARE = "spare"


class BlockInfo:
    """State of one physical block.

    ``pending`` counts pages allocated but not yet committed (their
    program is still in flight); blocks with pending pages are never
    eligible GC victims.  The valid pages live in ``mask`` (bit ``p``
    set while page ``p`` holds valid data; see
    :mod:`repro.flash.pagemask`).
    """

    __slots__ = ("addr", "state", "write_ptr", "mask", "pending")

    def __init__(self, addr: PhysAddr):
        #: The block's address; its page field is zero.
        self.addr = addr
        self.state = FREE
        self.write_ptr = 0
        self.mask = 0
        self.pending = 0

    @property
    def valid(self) -> FrozenSet[int]:
        """Read-only view: offsets of the valid pages.

        Assigning an iterable of offsets replaces ``mask``.
        """
        return frozenset(offsets_of(self.mask))

    @valid.setter
    def valid(self, offsets: Iterable[int]) -> None:
        self.mask = mask_of(offsets)

    @property
    def valid_count(self) -> int:
        """Number of valid pages in the block."""
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return (
            f"BlockInfo({self.addr}, {self.state}, wp={self.write_ptr}, "
            f"valid={self.valid_count})"
        )


class BlockManager:
    """Allocator + validity bookkeeping over the whole device.

    ``gc_reserve_blocks`` free blocks per plane are withheld from host
    allocation so garbage collection always has destinations available
    (the standard over-provisioning floor that prevents write deadlock).
    """

    def __init__(self, geometry: FlashGeometry, gc_reserve_blocks: int = 1):
        if gc_reserve_blocks < 0:
            raise MappingError(
                f"negative gc reserve: {gc_reserve_blocks}"
            )
        if gc_reserve_blocks >= geometry.blocks_per_plane:
            raise MappingError(
                "gc reserve must leave at least one allocatable block"
            )
        self.geometry = geometry
        self.gc_reserve_blocks = gc_reserve_blocks
        blocks_per_plane = geometry.blocks_per_plane
        # Block addresses in hierarchical order, so enumerate() yields
        # each block's index, and every plane's free pool starts with its
        # blocks in index order.
        self.blocks: Dict[int, BlockInfo] = dict(enumerate(
            BlockInfo(PhysAddr._make(position)) for position in product(
                range(geometry.channels), range(geometry.ways),
                range(geometry.dies), range(geometry.planes),
                range(blocks_per_plane), (0,))))
        self._free: List[Deque[int]] = [
            deque(range(base, base + blocks_per_plane))
            for base in range(0, geometry.blocks_total, blocks_per_plane)
        ]
        self._active: List[Optional[int]] = [None] * geometry.planes_total
        self._active_gc: List[Optional[int]] = [None] * geometry.planes_total
        self._cursor = 0
        self.free_blocks = geometry.blocks_total
        self.bad_blocks = 0
        self.spare_blocks = 0
        self._rebuild_ready()

    # -- per-plane allocatability cache --------------------------------------
    #
    # ``allocate_page`` round-robins over every plane; on a nearly-full
    # device most planes cannot serve an allocation, and on the profile
    # of a steady-state run the failed probes dominated the whole FTL.
    # The flags mirror ``_try_allocate_in_plane``'s success predicate
    # exactly, so the round-robin can skip dead planes (and fail in
    # O(1) when no plane qualifies) without changing which plane any
    # allocation lands on.

    def _refresh_plane(self, plane: int) -> None:
        """Recompute the readiness flags of one plane after a mutation."""
        free_len = len(self._free[plane])
        host = (self._active[plane] is not None
                or free_len > self.gc_reserve_blocks)
        if host != self._host_ready[plane]:
            self._host_ready[plane] = host
            self._host_ready_count += 1 if host else -1
        gc = self._active_gc[plane] is not None or free_len > 0
        if gc != self._gc_ready[plane]:
            self._gc_ready[plane] = gc
            self._gc_ready_count += 1 if gc else -1

    def _rebuild_ready(self) -> None:
        """Recompute every plane's readiness flags from scratch."""
        reserve = self.gc_reserve_blocks
        self._host_ready = [
            self._active[plane] is not None
            or len(self._free[plane]) > reserve
            for plane in range(self.geometry.planes_total)
        ]
        self._gc_ready = [
            self._active_gc[plane] is not None or len(self._free[plane]) > 0
            for plane in range(self.geometry.planes_total)
        ]
        self._host_ready_count = sum(self._host_ready)
        self._gc_ready_count = sum(self._gc_ready)

    # -- queries ----------------------------------------------------------

    def info(self, addr: PhysAddr) -> BlockInfo:
        """Block info for the block containing *addr*."""
        return self.blocks[self.geometry.block_index(addr)]

    @property
    def free_fraction(self) -> float:
        """Fraction of non-bad, non-spare blocks that are free."""
        usable = (self.geometry.blocks_total - self.bad_blocks
                  - self.spare_blocks)
        return self.free_blocks / usable if usable else 0.0

    def plane_free_blocks(self, plane: int) -> int:
        """Free blocks currently pooled in one plane."""
        return len(self._free[plane])

    def host_allocatable(self) -> bool:
        """Whether any plane can currently serve a host allocation."""
        return self._host_ready_count > 0

    def valid_pages_of(self, addr: PhysAddr) -> List[PhysAddr]:
        """Addresses of all currently valid pages in *addr*'s block."""
        info = self.info(addr)
        return [info.addr._replace(page=offset)
                for offset in offsets_of(info.mask)]

    # -- allocation ---------------------------------------------------------

    def allocate_page(self, for_gc: bool = False,
                      plane: Optional[int] = None) -> PhysAddr:
        """Allocate the next physical page.

        Round-robins across planes (unless *plane* pins one).  Host
        allocations skip planes whose free pool has fallen to the GC
        reserve; GC allocations may dip into the reserve.  Raises
        :class:`MappingError` when no plane can supply a page.
        """
        if plane is not None:
            addr = self._try_allocate_in_plane(plane, for_gc)
            if addr is None:
                raise MappingError(f"no allocatable page in plane {plane}")
            return addr
        addr = self.try_allocate_page(for_gc)
        if addr is None:
            raise MappingError(
                f"no allocatable page (for_gc={for_gc}); device full"
            )
        return addr

    def try_allocate_page(self, for_gc: bool = False) -> Optional[PhysAddr]:
        """:meth:`allocate_page` without the exception: None when full.

        The wait loops that poll for a page call this every tick, so a
        starved device answers with one counter test -- no plane scan,
        no exception.
        """
        if not (self._gc_ready_count if for_gc else self._host_ready_count):
            return None
        planes_total = self.geometry.planes_total
        ready = self._gc_ready if for_gc else self._host_ready
        cursor = self._cursor
        for offset in range(planes_total):
            candidate = cursor + offset
            if candidate >= planes_total:
                candidate -= planes_total
            if not ready[candidate]:
                continue
            addr = self._try_allocate_in_plane(candidate, for_gc)
            if addr is not None:
                self._cursor = (candidate + 1) % planes_total
                return addr
        return None

    def _try_allocate_in_plane(self, plane: int,
                               for_gc: bool) -> Optional[PhysAddr]:
        # Host and GC write into *separate* active blocks: a block GC
        # opened out of its reserve must never serve host allocations,
        # or host traffic steals the relocation headroom and every GC
        # worker ends up waiting for an erase that can no longer happen.
        slots = self._active_gc if for_gc else self._active
        active_index = slots[plane]
        if active_index is None:
            free_pool = self._free[plane]
            if not free_pool:
                return None
            if not for_gc and len(free_pool) <= self.gc_reserve_blocks:
                return None
            active_index = free_pool.popleft()
            self.free_blocks -= 1
            info = self.blocks[active_index]
            info.state = ACTIVE
            info.write_ptr = 0
            slots[plane] = active_index
        info = self.blocks[active_index]
        addr = info.addr._replace(page=info.write_ptr)
        info.write_ptr += 1
        info.pending += 1
        if info.write_ptr >= self.geometry.pages_per_block:
            info.state = FULL
            slots[plane] = None
        self._refresh_plane(plane)
        return addr

    # -- validity ---------------------------------------------------------

    def mark_valid(self, addr: PhysAddr) -> None:
        """Record that the page at *addr* now holds valid data."""
        info = self.info(addr)
        if addr.page >= info.write_ptr:
            raise MappingError(f"mark_valid of unwritten page {addr}")
        info.mask |= 1 << addr.page

    def commit_page(self, addr: PhysAddr, valid: bool) -> None:
        """Finish an allocated page's program: clear pending, set validity.

        Every :meth:`allocate_page` must be matched by exactly one
        ``commit_page`` once the program completes -- with
        ``valid=False`` when the data became stale in flight.
        """
        info = self.info(addr)
        if info.pending <= 0:
            raise MappingError(f"commit without pending allocation: {addr}")
        info.pending -= 1
        if valid:
            self.mark_valid(addr)

    def invalidate(self, addr: PhysAddr) -> None:
        """Record that the page at *addr* no longer holds valid data."""
        info = self.info(addr)
        info.mask &= ~(1 << addr.page)

    # -- garbage collection support ----------------------------------------------

    def pick_victim(self, plane: int,
                    max_valid_fraction: float = 1.0) -> Optional[PhysAddr]:
        """Greedy victim in *plane*: the FULL block with fewest valid pages.

        Blocks with more than ``max_valid_fraction`` of their pages valid
        are skipped (no point copying nearly-full blocks).  Returns None
        if the plane has no eligible victim.
        """
        best: Optional[BlockInfo] = None
        best_count = 0
        base = plane * self.geometry.blocks_per_plane
        pages_per_block = self.geometry.pages_per_block
        limit = pages_per_block * max_valid_fraction
        for block_index in range(base, base + self.geometry.blocks_per_plane):
            info = self.blocks[block_index]
            if info.state != FULL or info.pending > 0:
                continue
            count = info.mask.bit_count()
            if count >= pages_per_block:
                # Fully-valid victim: copying it frees nothing, so
                # collecting it can only burn erase cycles and reserve.
                continue
            if count > limit:
                continue
            if best is None or count < best_count:
                best = info
                best_count = count
                if count == 0:
                    break
        return best.addr if best is not None else None

    def claim_for_collection(self, addr: PhysAddr) -> None:
        """Mark a FULL block as owned by a migration worker."""
        info = self.info(addr)
        if info.state != FULL:
            raise MappingError(f"cannot collect non-FULL block {addr}")
        info.state = COLLECTING

    def unclaim(self, addr: PhysAddr) -> None:
        """Return a COLLECTING block to FULL (migration aborted)."""
        info = self.info(addr)
        if info.state != COLLECTING:
            raise MappingError(f"unclaim of non-collecting block {addr}")
        info.state = FULL

    def release_block(self, addr: PhysAddr) -> None:
        """Return an erased block to its plane's free pool."""
        info = self.info(addr)
        if info.state == BAD:
            raise MappingError(f"release of bad block {addr}")
        if info.mask:
            raise MappingError(
                f"release of block with {info.valid_count} valid pages: {addr}"
            )
        info.state = FREE
        info.write_ptr = 0
        plane = self.geometry.plane_index(addr)
        self._free[plane].append(self.geometry.block_index(addr))
        self.free_blocks += 1
        self._refresh_plane(plane)

    def withdraw_spare(self, plane: int) -> Optional[PhysAddr]:
        """Withdraw one free block from *plane* as a replacement spare.

        Takes from the back of the free pool and refuses to dip into
        the GC reserve (spares never cost write liveness).  Returns the
        block address, or None when the plane cannot spare one.
        """
        free_pool = self._free[plane]
        if len(free_pool) <= self.gc_reserve_blocks + 1:
            return None
        block_index = free_pool.pop()
        info = self.blocks[block_index]
        info.state = SPARE
        self.free_blocks -= 1
        self.spare_blocks += 1
        self._refresh_plane(plane)
        return info.addr

    def mark_bad(self, addr: PhysAddr) -> None:
        """Permanently retire the block containing *addr*."""
        info = self.info(addr)
        plane = self.geometry.plane_index(addr)
        block_index = self.geometry.block_index(addr)
        if info.state == FREE:
            plane_pool = self._free[plane]
            if block_index in plane_pool:
                plane_pool.remove(block_index)
                self.free_blocks -= 1
        elif info.state == ACTIVE:
            # Never hand out pages from a retired block.
            if self._active[plane] == block_index:
                self._active[plane] = None
            if self._active_gc[plane] == block_index:
                self._active_gc[plane] = None
        info.state = BAD
        info.mask = 0
        self.bad_blocks += 1
        self._refresh_plane(plane)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint of allocator + validity state.

        Only legal at quiescence: a block with ``pending`` allocations
        has programs in flight, which cannot be serialized.  Free-pool
        deques are stored in order -- allocation rotation is part of the
        deterministic schedule a restored device must reproduce.
        """
        blocks = []
        for index in sorted(self.blocks):
            info = self.blocks[index]
            if info.pending:
                raise MappingError(
                    f"cannot snapshot block {info.addr} with "
                    f"{info.pending} pending allocation(s)"
                )
            blocks.append([index, info.state, info.write_ptr,
                           offsets_of(info.mask)])
        return {
            "blocks": blocks,
            "free": [list(pool) for pool in self._free],
            "active": list(self._active),
            "active_gc": list(self._active_gc),
            "cursor": self._cursor,
            "free_blocks": self.free_blocks,
            "bad_blocks": self.bad_blocks,
            "spare_blocks": self.spare_blocks,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (same geometry)."""
        if len(state["free"]) != self.geometry.planes_total:
            raise MappingError("restored free pools do not match geometry")
        for index, block_state, write_ptr, valid in state["blocks"]:
            info = self.blocks[int(index)]
            info.state = block_state
            info.write_ptr = int(write_ptr)
            info.valid = (int(page) for page in valid)
            info.pending = 0
        self._free = [deque(int(i) for i in pool) for pool in state["free"]]
        self._active = [None if index is None else int(index)
                        for index in state["active"]]
        self._active_gc = [None if index is None else int(index)
                           for index in state.get(
                               "active_gc",
                               [None] * self.geometry.planes_total)]
        self._cursor = int(state["cursor"])
        self.free_blocks = int(state["free_blocks"])
        self.bad_blocks = int(state["bad_blocks"])
        self.spare_blocks = int(state["spare_blocks"])
        self._rebuild_ready()

    # -- instant pre-conditioning ---------------------------------------------

    def prefill_block(self, addr: PhysAddr,
                      valid_offsets: Set[int]) -> None:
        """Instantly mark a free block FULL with the given valid pages.

        Used by experiment setup to pre-condition a "fully utilized" SSD
        (paper Sec 6.1) without simulating the fill traffic.
        """
        for offset in valid_offsets:
            if not 0 <= offset < self.geometry.pages_per_block:
                raise AddressError(f"prefill offset {offset} out of range")
        self.prefill_block_at(self.geometry.block_index(addr), valid_offsets)

    def prefill_block_at(self, block_index: int,
                         valid_offsets: Iterable[int]) -> None:
        """:meth:`prefill_block` by block index, for in-range offsets."""
        info = self.blocks[block_index]
        if info.state != FREE:
            raise MappingError(f"prefill of non-free block {info.addr}")
        plane = block_index // self.geometry.blocks_per_plane
        self._free[plane].remove(block_index)
        self.free_blocks -= 1
        info.state = FULL
        info.write_ptr = self.geometry.pages_per_block
        info.mask = mask_of(valid_offsets)
        self._refresh_plane(plane)
