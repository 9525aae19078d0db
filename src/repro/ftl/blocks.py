"""Physical block management: allocation, validity tracking, victims.

The block manager owns the FTL's view of every physical block: its
state (free / active / full / bad), its write pointer, and which of its
pages hold valid data.  Page allocation round-robins across planes to
expose channel/way/plane parallelism; garbage collection asks it for
greedy victims (fewest valid pages) and returns erased blocks to the
free pool.

Every entry point speaks integers: a page is its hierarchical PPN
(``block_index * pages_per_block + offset``, the number the mapping
table stores) from allocation through commit, invalidation and
relocation, and a block is its block index.  Each one raises
:class:`~repro.errors.AddressError` for an argument outside
``[0, pages_total)``, ``[0, blocks_total)`` or ``[0, planes_total)``,
negatives included.  A :class:`~repro.flash.PhysAddr` exists only from
the datapath down: :meth:`BlockManager.page_addr` builds one at the
call into the datapath, from the block's stored address.
"""

from __future__ import annotations

from collections import deque
from itertools import filterfalse, product, repeat
from typing import (Deque, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set)

from ..errors import AddressError, MappingError
from ..flash import FlashGeometry, PhysAddr
from ..flash.pagemask import mask_of, offsets_of
from ..sim import WakeList

__all__ = ["BlockInfo", "BlockManager", "FREE", "ACTIVE", "FULL", "BAD",
           "COLLECTING", "SPARE"]

FREE = "free"
ACTIVE = "active"
FULL = "full"
BAD = "bad"
#: Transitional state: a relocation (a GC worker, the wear leveler or
#: a superblock migration) owns the block and is moving its pages off;
#: nobody else may select it.
COLLECTING = "collecting"
#: Withdrawn from the free pools as a bad-block replacement spare; the
#: FTL never addresses it directly (the reliability layer remaps onto
#: it below the FTL).
SPARE = "spare"

_STATES = frozenset((FREE, ACTIVE, FULL, BAD, COLLECTING, SPARE))


def _out_of_range(what: str, value: int, limit: int) -> AddressError:
    return AddressError(f"{what} {value} out of range [0, {limit})")


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

    Pre-conditioning lays a plane's filled blocks down in one
    :meth:`prefill_plane` call, which checks all of them before it
    changes any.
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
        self._pages_per_block = geometry.pages_per_block
        self._pages_total = geometry.pages_total
        self._blocks_total = geometry.blocks_total
        blocks_per_plane = geometry.blocks_per_plane
        # Block addresses in hierarchical order, so enumerate() yields
        # each block's index, and every plane's free pool starts with its
        # blocks in index order.  map() over tuple.__new__ builds the
        # addresses without a generator or namedtuple frame per block.
        self.blocks: Dict[int, BlockInfo] = dict(enumerate(map(
            BlockInfo, map(tuple.__new__, repeat(PhysAddr), product(
                range(geometry.channels), range(geometry.ways),
                range(geometry.dies), range(geometry.planes),
                range(blocks_per_plane), (0,))))))
        #: ``1 << offset`` per page offset, for building masks in bulk.
        #: A dict, so an offset outside the block -- a negative one
        #: included -- raises ``KeyError`` instead of wrapping round.
        self._page_bits = {page: 1 << page
                           for page in range(self._pages_per_block)}
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
        #: Woken when :attr:`host_ready_count` rises from 0.
        self.wake_on_host_ready = WakeList()
        #: Woken whenever :attr:`free_fraction` may have fallen.
        self.wake_on_free_fall = WakeList()
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
            if host:
                self.host_ready_count += 1
                if self.host_ready_count == 1:
                    self.wake_on_host_ready.notify()
            else:
                self.host_ready_count -= 1
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
        #: Planes that can serve a host allocation now.  Read-only: the
        #: readiness flags keep it; the FTL's allocation poll tests it
        #: before it calls :meth:`try_allocate_page`.
        self.host_ready_count = sum(self._host_ready)
        self._gc_ready_count = sum(self._gc_ready)
        if self.host_ready_count:
            self.wake_on_host_ready.notify()
        self.wake_on_free_fall.notify()

    # -- queries ----------------------------------------------------------

    def info(self, block: int) -> BlockInfo:
        """Block info for the block with index *block*."""
        if not 0 <= block < self._blocks_total:
            raise _out_of_range("block", block, self._blocks_total)
        return self.blocks[block]

    def page_addr(self, ppn: int) -> PhysAddr:
        """The physical address of page *ppn*, for the datapath."""
        if not 0 <= ppn < self._pages_total:
            raise _out_of_range("ppn", ppn, self._pages_total)
        block, page = divmod(ppn, self._pages_per_block)
        addr = self.blocks[block].addr
        # tuple.__new__ over the block's stored address: the FTL builds
        # one per page it reads, writes or moves, so skip the namedtuple
        # constructor and the geometry's divmod chain.
        return tuple.__new__(PhysAddr, (addr[0], addr[1], addr[2],
                                        addr[3], addr[4], page))

    def _check_plane(self, plane: int) -> None:
        planes_total = self.geometry.planes_total
        if not 0 <= plane < planes_total:
            raise _out_of_range("plane", plane, planes_total)

    @property
    def free_fraction(self) -> float:
        """Fraction of non-bad, non-spare blocks that are free."""
        usable = (self.geometry.blocks_total - self.bad_blocks
                  - self.spare_blocks)
        return self.free_blocks / usable if usable else 0.0

    def plane_free_blocks(self, plane: int) -> int:
        """Free blocks currently pooled in one plane."""
        self._check_plane(plane)
        return len(self._free[plane])

    def host_allocatable(self) -> bool:
        """Whether any plane can currently serve a host allocation."""
        return self.host_ready_count > 0

    def valid_pages_of(self, block: int) -> List[int]:
        """PPNs of all currently valid pages in *block*, ascending."""
        mask = self.info(block).mask
        first = block * self._pages_per_block
        return [first + offset for offset in offsets_of(mask)]

    # -- allocation ---------------------------------------------------------

    def allocate_page(self, for_gc: bool = False,
                      plane: Optional[int] = None) -> int:
        """Allocate the next physical page; returns its PPN.

        Round-robins across planes (unless *plane* pins one).  Host
        allocations skip planes whose free pool has fallen to the GC
        reserve; GC allocations may dip into the reserve.  Raises
        :class:`MappingError` when no plane can supply a page.
        """
        if plane is not None:
            self._check_plane(plane)
            ppn = self._try_allocate_in_plane(plane, for_gc)
            if ppn is None:
                raise MappingError(f"no allocatable page in plane {plane}")
            return ppn
        ppn = self.try_allocate_page(for_gc)
        if ppn is None:
            raise MappingError(
                f"no allocatable page (for_gc={for_gc}); device full"
            )
        return ppn

    def try_allocate_page(self, for_gc: bool = False) -> Optional[int]:
        """:meth:`allocate_page` without the exception: None when full.

        The wait loops that poll for a page call this every tick, so a
        starved device answers with one counter test -- no plane scan,
        no exception.
        """
        if not (self._gc_ready_count if for_gc else self.host_ready_count):
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
            ppn = self._try_allocate_in_plane(candidate, for_gc)
            if ppn is not None:
                self._cursor = (candidate + 1) % planes_total
                return ppn
        return None

    def _try_allocate_in_plane(self, plane: int,
                               for_gc: bool) -> Optional[int]:
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
            self.wake_on_free_fall.notify()
            info = self.blocks[active_index]
            info.state = ACTIVE
            info.write_ptr = 0
            slots[plane] = active_index
        info = self.blocks[active_index]
        pages_per_block = self._pages_per_block
        ppn = active_index * pages_per_block + info.write_ptr
        info.write_ptr += 1
        info.pending += 1
        if info.write_ptr >= pages_per_block:
            info.state = FULL
            slots[plane] = None
        self._refresh_plane(plane)
        return ppn

    # -- validity ---------------------------------------------------------

    # commit_page and invalidate run once or twice per page the FTL
    # writes, so each inlines its range check and block lookup.

    def mark_valid(self, ppn: int) -> None:
        """Record that page *ppn* now holds valid data."""
        if not 0 <= ppn < self._pages_total:
            raise _out_of_range("ppn", ppn, self._pages_total)
        block, page = divmod(ppn, self._pages_per_block)
        info = self.blocks[block]
        if page >= info.write_ptr:
            raise MappingError(f"mark_valid of unwritten page {ppn}")
        info.mask |= 1 << page

    def commit_page(self, ppn: int, valid: bool) -> None:
        """Finish an allocated page's program: clear pending, set validity.

        Every :meth:`allocate_page` must be matched by exactly one
        ``commit_page`` once the program completes -- with
        ``valid=False`` when the data became stale in flight.
        """
        if not 0 <= ppn < self._pages_total:
            raise _out_of_range("ppn", ppn, self._pages_total)
        block, page = divmod(ppn, self._pages_per_block)
        info = self.blocks[block]
        if info.pending <= 0:
            raise MappingError(f"commit without pending allocation: {ppn}")
        info.pending -= 1
        if valid:
            if page >= info.write_ptr:
                raise MappingError(f"mark_valid of unwritten page {ppn}")
            info.mask |= 1 << page

    def invalidate(self, ppn: int) -> None:
        """Record that page *ppn* no longer holds valid data."""
        if not 0 <= ppn < self._pages_total:
            raise _out_of_range("ppn", ppn, self._pages_total)
        block, page = divmod(ppn, self._pages_per_block)
        self.blocks[block].mask &= ~(1 << page)

    # -- garbage collection support ----------------------------------------------

    def pick_victim(self, plane: int) -> Optional[int]:
        """Greedy victim in *plane*: the FULL block with fewest valid pages.

        Returns the victim's block index, or None if the plane has no
        eligible victim.
        """
        self._check_plane(plane)
        best: Optional[int] = None
        best_count = 0
        base = plane * self.geometry.blocks_per_plane
        pages_per_block = self.geometry.pages_per_block
        for block_index in range(base, base + self.geometry.blocks_per_plane):
            info = self.blocks[block_index]
            if info.state != FULL or info.pending > 0:
                continue
            count = info.mask.bit_count()
            if count >= pages_per_block:
                # Fully-valid victim: copying it frees nothing, so
                # collecting it can only burn erase cycles and reserve.
                continue
            if best is None or count < best_count:
                best = block_index
                best_count = count
                if count == 0:
                    break
        return best

    def claim_for_collection(self, block: int) -> None:
        """Mark a FULL block as owned by a migration worker."""
        info = self.info(block)
        if info.state != FULL:
            raise MappingError(f"cannot collect non-FULL block {info.addr}")
        info.state = COLLECTING

    def close_block(self, block: int) -> None:
        """Stop allocating from ACTIVE block *block*: it turns FULL where
        its write pointer stands; pages already handed out still commit."""
        info = self.info(block)
        if info.state != ACTIVE:
            raise MappingError(f"cannot close non-ACTIVE block {info.addr}")
        plane = block // self.geometry.blocks_per_plane
        if self._active[plane] == block:
            self._active[plane] = None
        if self._active_gc[plane] == block:
            self._active_gc[plane] = None
        info.state = FULL
        self._refresh_plane(plane)

    def release_block(self, block: int) -> None:
        """Return an erased block to its plane's free pool."""
        info = self.info(block)
        if info.state == BAD:
            raise MappingError(f"release of bad block {info.addr}")
        if info.mask:
            raise MappingError(
                f"release of block with {info.valid_count} valid pages: "
                f"{info.addr}"
            )
        info.state = FREE
        info.write_ptr = 0
        plane = block // self.geometry.blocks_per_plane
        self._free[plane].append(block)
        self.free_blocks += 1
        self._refresh_plane(plane)

    def withdraw_spare(self, plane: int) -> Optional[int]:
        """Withdraw one free block from *plane* as a replacement spare.

        Takes from the back of the free pool and refuses to dip into
        the GC reserve (spares never cost write liveness).  Returns the
        block index, or None when the plane cannot spare one.
        """
        self._check_plane(plane)
        free_pool = self._free[plane]
        if len(free_pool) <= self.gc_reserve_blocks + 1:
            return None
        block_index = free_pool.pop()
        info = self.blocks[block_index]
        info.state = SPARE
        self.free_blocks -= 1
        self.spare_blocks += 1
        self._refresh_plane(plane)
        self.wake_on_free_fall.notify()
        return block_index

    def mark_bad(self, block: int) -> None:
        """Permanently retire block *block*.

        Refuses, changing nothing, a block with pages still in flight:
        their commits would leave LPNs mapped into a retired block.
        """
        info = self.info(block)
        if info.pending:
            raise MappingError(
                f"mark_bad of block {info.addr} with {info.pending} "
                "pending page(s)")
        plane = block // self.geometry.blocks_per_plane
        if info.state == FREE:
            plane_pool = self._free[plane]
            if block in plane_pool:
                plane_pool.remove(block)
                self.free_blocks -= 1
        elif info.state == ACTIVE:
            # Never hand out pages from a retired block.
            self.close_block(block)
        info.state = BAD
        info.mask = 0
        self.bad_blocks += 1
        self._refresh_plane(plane)
        self.wake_on_free_fall.notify()

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
        """Restore a :meth:`state_dict` checkpoint (same geometry).

        Raises :class:`MappingError`, leaving the manager unchanged,
        when the checkpoint

        * names a block outside the geometry, or lists one block twice;
        * gives a block an unknown state, a write pointer outside
          ``[0, pages_per_block]`` or a valid page at or past its write
          pointer;
        * pools a block twice, pools a block of another plane or one
          that is not FREE, or puts another plane's block in an active
          slot;
        * has a cursor outside ``[0, planes_total)``.
        """
        geometry = self.geometry
        planes_total = geometry.planes_total
        blocks_total = self._blocks_total
        pages_per_block = self._pages_per_block
        blocks_per_plane = geometry.blocks_per_plane

        def block_of(index, where: str) -> int:
            index = int(index)
            if not 0 <= index < blocks_total:
                raise MappingError(
                    f"restored {where} names block {index} outside "
                    f"[0, {blocks_total})")
            return index

        restored = {}
        for index, block_state, write_ptr, valid in state["blocks"]:
            index = block_of(index, "block list")
            if index in restored:
                raise MappingError(
                    f"restored block list repeats block {index}")
            if block_state not in _STATES:
                raise MappingError(
                    f"restored block {index} has unknown state "
                    f"{block_state!r}")
            write_ptr = int(write_ptr)
            if not 0 <= write_ptr <= pages_per_block:
                raise MappingError(
                    f"restored block {index} has write pointer "
                    f"{write_ptr} outside [0, {pages_per_block}]")
            offsets = [int(page) for page in valid]
            for page in offsets:
                if not 0 <= page < write_ptr:
                    raise MappingError(
                        f"restored block {index} has valid page {page} "
                        f"outside [0, {write_ptr})")
            restored[index] = (block_state, write_ptr, mask_of(offsets))

        def state_of(index: int) -> str:
            entry = restored.get(index)
            return self.blocks[index].state if entry is None else entry[0]

        def slots(key: str, listed: list) -> List[Optional[int]]:
            if len(listed) != planes_total:
                raise MappingError(
                    f"restored {key} slots do not match geometry")
            result: List[Optional[int]] = []
            for plane, index in enumerate(listed):
                if index is not None:
                    index = block_of(index, f"{key} slot")
                    if index // blocks_per_plane != plane:
                        raise MappingError(
                            f"restored {key} slot of plane {plane} holds "
                            f"block {index} of another plane")
                result.append(index)
            return result

        if len(state["free"]) != planes_total:
            raise MappingError("restored free pools do not match geometry")
        pooled: Set[int] = set()
        free: List[Deque[int]] = []
        for plane, pool in enumerate(state["free"]):
            restored_pool: Deque[int] = deque()
            for index in pool:
                index = block_of(index, "free pool")
                if index // blocks_per_plane != plane:
                    raise MappingError(
                        f"restored free pool of plane {plane} holds "
                        f"block {index} of another plane")
                if index in pooled:
                    raise MappingError(
                        f"restored free pools repeat block {index}")
                if state_of(index) != FREE:
                    raise MappingError(
                        f"restored free pool holds block {index} in state "
                        f"{state_of(index)!r}")
                pooled.add(index)
                restored_pool.append(index)
            free.append(restored_pool)
        active = slots("active", state["active"])
        active_gc = slots("active_gc", state.get("active_gc",
                                                 [None] * planes_total))
        cursor = int(state["cursor"])
        if not 0 <= cursor < planes_total:
            raise MappingError(
                f"restored cursor {cursor} outside [0, {planes_total})")
        counters = [int(state[key]) for key in
                    ("free_blocks", "bad_blocks", "spare_blocks")]

        for index, (block_state, write_ptr, mask) in restored.items():
            info = self.blocks[index]
            info.state = block_state
            info.write_ptr = write_ptr
            info.mask = mask
            info.pending = 0
        self._free = free
        self._active = active
        self._active_gc = active_gc
        self._cursor = cursor
        self.free_blocks, self.bad_blocks, self.spare_blocks = counters
        self._rebuild_ready()

    # -- instant pre-conditioning ---------------------------------------------

    def prefill_plane(self, plane: int, blocks: Sequence[int],
                      offsets: Sequence[int]) -> None:
        """Instantly mark free blocks of one plane FULL with valid pages.

        Used by experiment setup to pre-condition a "fully utilized" SSD
        (paper Sec 6.1) without simulating the fill traffic.  *offsets*
        holds each block's valid page offsets in turn, the same number
        per block: ``blocks[i]`` keeps ``offsets[i * k:(i + 1) * k]``
        with ``k = len(offsets) // len(blocks)``.

        Everything is checked before anything changes.  A plane out of
        range, a block outside *plane* or an offset outside
        ``[0, pages_per_block)`` raises :class:`AddressError`; a block
        that is not FREE or is listed twice, offsets that do not split
        evenly over the blocks, or an offset listed twice for one block
        raise :class:`MappingError`.  The plane's free pool is then
        rebuilt once, keeping the order of the blocks left in it, and
        its readiness flags refreshed once.
        """
        self._check_plane(plane)
        count = len(blocks)
        per_block, extra = divmod(len(offsets), count) if count \
            else (0, len(offsets))
        if extra:
            raise MappingError(
                f"{len(offsets)} prefill offsets do not split evenly over "
                f"{count} blocks of plane {plane}")
        if not count:
            return
        blocks_per_plane = self.geometry.blocks_per_plane
        base = plane * blocks_per_plane
        if min(blocks) < base or max(blocks) >= base + blocks_per_plane:
            raise AddressError(
                f"prefill of a block outside plane {plane}'s range "
                f"[{base}, {base + blocks_per_plane})")
        filled = set(blocks)
        if len(filled) != count:
            raise MappingError(f"prefill lists a block of plane {plane} "
                               f"twice")
        infos = list(map(self.blocks.__getitem__, blocks))
        for info in infos:
            if info.state != FREE:
                raise MappingError(f"prefill of non-free block {info.addr}")
        pages_per_block = self._pages_per_block
        if per_block:
            # One k-tuple of page bits per block, summed: no Python
            # frame per block or per page.  A repeated offset would
            # carry into another bit, so the bit counts must add up.
            try:
                masks = list(map(sum, zip(*[map(
                    self._page_bits.__getitem__, offsets)] * per_block)))
            except KeyError:
                raise AddressError(
                    f"prefill offset in plane {plane} outside "
                    f"[0, {pages_per_block})") from None
            if sum(map(int.bit_count, masks)) != len(offsets):
                raise MappingError(
                    f"prefill lists a page of a block of plane {plane} "
                    f"twice")
        else:
            masks = repeat(0)
        for info, mask in zip(infos, masks):
            info.state = FULL
            info.write_ptr = pages_per_block
            info.mask = mask
        # A new deque, not clear() and extend(): a cleared deque keeps its
        # old block as a spare, 528 bytes per plane held for good.
        self._free[plane] = deque(filterfalse(filled.__contains__,
                                              self._free[plane]))
        self.free_blocks -= count
        self._refresh_plane(plane)
        self.wake_on_free_fall.notify()
