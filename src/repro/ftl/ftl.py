"""The flash translation layer: I/O handling, write buffering, flushing.

The FTL receives host requests, translates addresses, services DRAM
hits, stages write-back data in the DRAM write buffer, and drives the
background flushers that materialize buffered pages into flash.  All
actual data movement is delegated to the architecture datapath so the
same FTL runs unmodified on every configuration -- one of the paper's
design principles ("minimize the impact on FTL").
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from itertools import chain, repeat
from operator import add
from typing import Dict, Generator, List

from ..controller import Breakdown, HostInterface
from ..errors import ConfigError, MappingError
from ..flash import FlashGeometry
from ..sim import LatencyStats, Simulator, Store, TimeBins
from .blocks import FREE, BlockManager
from .gc import GarbageCollector
from .mapping import PageMappingTable
from .request import READ, TRIM, WRITE, IoRequest

__all__ = ["Ftl", "WRITE_POLICIES"]

WRITE_POLICIES = ("writeback", "writethrough")

#: Host-request breakdowns kept in :attr:`Ftl.io_breakdowns`.
_BREAKDOWN_SAMPLES = 2048


class _DiscardBreakdown:
    """A :class:`Breakdown` sink for work whose breakdown nobody reads.

    A background flush has no host request to report a breakdown for,
    so its datapath stages attribute their time here, to nothing.
    """

    __slots__ = ()

    def add(self, component: str, duration: float) -> None:
        """Drop *duration*."""


_DISCARD = _DiscardBreakdown()


@lru_cache(maxsize=8)
def _prefill_draws(seed: int, pages_per_block: int, n_valid: int,
                   blocks: int) -> memoryview:
    """The valid page offsets :meth:`Ftl.prefill` draws for *blocks*
    filled blocks, in draw order.

    One ``rng.sample(range(pages_per_block), n_valid)`` per block from
    ``random.Random(seed)``.  A sample uses the generator the same way
    whichever block it is for, so the sequence depends on these four
    arguments alone, and devices that share them -- the points of one
    figure -- share one draw per process.  Only draws are cached, never
    device state, so a cold prefill and a warm one run the same
    lay-down.  A draw is a read-only view of packed unsigned offsets,
    one byte each up to 256 pages per block and two beyond: no Python
    object per offset.
    """
    typecode = ("B" if pages_per_block <= 1 << 8
                else "H" if pages_per_block <= 1 << 16 else "I")
    rng = random.Random(seed)
    page_offsets = range(pages_per_block)
    draws = array(typecode)
    for _ in range(blocks):
        draws.extend(rng.sample(page_offsets, n_valid))
    return memoryview(draws.tobytes()).cast(typecode)


class Ftl:
    """Firmware layer tying host, mapping, buffers, GC, and datapath."""

    def __init__(self, sim: Simulator, geometry: FlashGeometry,
                 mapping: PageMappingTable, blocks: BlockManager,
                 datapath, host: HostInterface, gc: GarbageCollector,
                 write_policy: str = "writeback",
                 flush_workers: int = 32,
                 bin_width: float = 1000.0):
        if write_policy not in WRITE_POLICIES:
            raise ConfigError(f"unknown write policy {write_policy!r}")
        if flush_workers < 1:
            raise ConfigError(f"flush_workers must be >= 1: {flush_workers}")
        self.sim = sim
        self.geometry = geometry
        self.mapping = mapping
        self.blocks = blocks
        self.datapath = datapath
        self.host = host
        self.gc = gc
        self.write_policy = write_policy
        self.flush_workers = flush_workers

        #: LPN -> admission stamp of the newest write staged for it.
        self._dirty: Dict[int, int] = {}
        self._flush_queue = Store(sim, name="flush_queue")
        self._flushers_started = False
        #: Monotone per-request admission counter.  Assigned the moment
        #: host.submit() returns, i.e. in queue-grant order, which is a
        #: pure function of the op sequence (FIFO slots, constant
        #: command latency) -- NOT of datapath timing.  Comparing
        #: stamps therefore gives every write/trim race on an LPN an
        #: architecture-invariant winner.
        self._stamp = 0
        #: LPN -> admission stamp of the latest *processed* trim.
        self._trim_stamp: Dict[int, int] = {}

        self.io_latency = LatencyStats("io")
        self.read_latency = LatencyStats("read")
        self.write_latency = LatencyStats("write")
        self.completed_bytes = TimeBins(bin_width)
        self.requests_completed = 0
        self.trims_processed = 0
        self.io_breakdowns: List[Breakdown] = []
        self.flush_stalls = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch background flusher processes (write-back mode only)."""
        if self._flushers_started or self.write_policy != "writeback":
            return
        self._flushers_started = True
        for worker in range(self.flush_workers):
            self.sim.process(self._flusher(), name=f"flusher{worker}")

    # -- host request handling ---------------------------------------------------

    def submit(self, request: IoRequest):
        """Start processing a request; returns its process handle."""
        return self.sim.process(self._handle(request), name="io")

    def _handle(self, request: IoRequest) -> Generator:
        request.issue_time = self.sim.now
        # host.submit() is itself exception-safe: an interrupt while
        # waiting for (or settling into) the queue slot rolls the
        # admission back before the exception reaches this frame.
        yield from self.host.submit()
        self._stamp += 1
        stamp = self._stamp
        breakdown = Breakdown()
        try:
            if request.op == WRITE:
                yield from self._handle_write(request, breakdown, stamp)
            elif request.op == TRIM:
                yield from self._handle_trim(request, breakdown, stamp)
            else:
                yield from self._handle_read(request, breakdown)
            request.complete_time = self.sim.now
        finally:
            self.host.complete()
        self._record(request, breakdown)
        return request

    def _handle_write(self, request: IoRequest, breakdown: Breakdown,
                      stamp: int = 0) -> Generator:
        priority = request.priority
        t0 = self.sim.now
        yield self.host.link.transfer(
            request.bytes(self.geometry.page_size), "io", priority)
        breakdown.add("host", self.sim.now - t0)
        if request.dram_hit:
            yield from self.datapath.io_dram_rw(
                request.bytes(self.geometry.page_size), breakdown,
                priority=priority,
            )
            return
        if self.write_policy == "writeback":
            for offset in range(request.n_pages):
                yield from self._buffer_write(request.lpn + offset, breakdown,
                                              priority, stamp)
        else:
            procs = [
                self.sim.process(
                    self._write_through_page(request.lpn + offset, breakdown,
                                             priority, stamp)
                )
                for offset in range(request.n_pages)
            ]
            yield self.sim.all_of(procs)

    def _handle_read(self, request: IoRequest,
                     breakdown: Breakdown) -> Generator:
        priority = request.priority
        if request.dram_hit:
            yield from self.datapath.io_dram_rw(
                request.bytes(self.geometry.page_size), breakdown, "read",
                priority=priority,
            )
        else:
            procs = [
                self.sim.process(
                    self._read_page(request.lpn + offset, breakdown, priority)
                )
                for offset in range(request.n_pages)
            ]
            yield self.sim.all_of(procs)
        t0 = self.sim.now
        yield self.host.link.transfer(
            request.bytes(self.geometry.page_size), "io", priority)
        breakdown.add("host", self.sim.now - t0)

    def _handle_trim(self, request: IoRequest, breakdown: Breakdown,
                     stamp: int = 0) -> Generator:
        """Deallocate an LPN range: mapping-table work only, no data.

        Trimmed pages become GC-reclaimable immediately, so a trim-aware
        host reduces write amplification for free.

        Ordering: this loop runs at admission + command latency, before
        any later-admitted write can stage or bind (those pay at least
        a host transfer on top of the same command latency), so the
        unconditional dirty-pop and unbind can only ever discard data
        from *earlier*-admitted writes -- exactly TRIM semantics.  The
        recorded ``_trim_stamp`` lets in-flight flushes and
        write-through programs of those earlier writes drop their bind
        instead of resurrecting the trimmed LPN.
        """
        for offset in range(request.n_pages):
            lpn = request.lpn + offset
            self._dirty.pop(lpn, None)
            self._trim_stamp[lpn] = stamp
            ppn = self.mapping.unbind(lpn)
            if ppn is not None:
                self.blocks.invalidate(ppn)
        # Command processing cost only (mapping update in SRAM/DRAM).
        yield from self.datapath.io_dram_rw(64 * request.n_pages,
                                            breakdown, "write",
                                            priority=request.priority)
        self.trims_processed += 1

    # -- per-page paths --------------------------------------------------------

    def _buffer_write(self, lpn: int, breakdown: Breakdown,
                      priority: int = 0, stamp: int = 0) -> Generator:
        """Write-back: stage one page in the DRAM buffer."""
        coalesced = lpn in self._dirty
        grant = None
        if not coalesced:
            # May backpressure: the buffer is full until a flush completes.
            grant = self.datapath.dram.reserve_buffer_page()
        staged = False
        try:
            if grant is not None:
                yield grant
            yield from self.datapath.io_dram_rw(self.geometry.page_size,
                                                breakdown, priority=priority)
            if self._trim_stamp.get(lpn, 0) > stamp:
                # A later-admitted TRIM already processed while this
                # write was transferring: the data is dead on arrival.
                # Don't stage it (the finally below returns the slot).
                return
            if not coalesced:
                self._flush_queue.put(lpn)
                # max(): under differing transfer lengths a newer write
                # can finish staging before an older one -- never
                # rewind the stamp the flusher races against trims.
                self._dirty[lpn] = max(self._dirty.get(lpn, 0), stamp)
                staged = True
            elif lpn in self._dirty:
                self._dirty[lpn] = max(self._dirty[lpn], stamp)
            # else: the flush this write coalesced into already
            # departed -- the update is lost, but nothing was staged
            # here so there is nothing to queue or release.
        finally:
            # On an interrupt before the page is staged, the reserved
            # buffer slot would otherwise never be flushed-and-released.
            if grant is not None and not staged:
                self.datapath.dram.write_buffer.cancel(grant)

    def _write_through_page(self, lpn: int, breakdown: Breakdown,
                            priority: int = 0, stamp: int = 0) -> Generator:
        """Write-through: the page completes only after flash program."""
        ppn = yield from self._allocate_with_gc()
        yield from self.datapath.io_program(self.blocks.page_addr(ppn),
                                            breakdown, priority=priority)
        if self._trim_stamp.get(lpn, 0) > stamp:
            # A later-admitted TRIM processed while the program was in
            # flight: binding now would resurrect the trimmed LPN.
            self.blocks.commit_page(ppn, valid=False)
        else:
            self._bind(lpn, ppn)
        self.gc.maybe_trigger()

    def _read_page(self, lpn: int, breakdown: Breakdown,
                   priority: int = 0) -> Generator:
        if lpn in self._dirty:
            yield from self.datapath.io_dram_rw(self.geometry.page_size,
                                                breakdown, "read",
                                                priority=priority)
            return
        ppn = self.mapping.lookup(lpn)
        if ppn is None:
            # Unwritten LPN: serve zeroes from the controller (DRAM path).
            yield from self.datapath.io_dram_rw(self.geometry.page_size,
                                                breakdown, "read",
                                                priority=priority)
            return
        yield from self.datapath.io_read_flash(self.blocks.page_addr(ppn),
                                               breakdown, priority=priority)

    # -- flushing -----------------------------------------------------------------

    def _flusher(self) -> Generator:
        while True:
            lpn = yield self._flush_queue.get()
            if lpn not in self._dirty:
                # Trimmed (or double-staged) while queued: the staged
                # page is a tombstone.  Give its buffer slot back
                # without programming anything -- every queue entry
                # carries exactly one reservation.
                self.datapath.dram.release_buffer_page()
                continue
            stamp = self._dirty.pop(lpn)
            ppn = yield from self._allocate_with_gc()
            try:
                yield from self.datapath.io_flush_write(
                    self.blocks.page_addr(ppn), _DISCARD)
            finally:
                # Even if this flusher is killed mid-write, the buffer
                # slot must come back -- host writes backpressure on it.
                self.datapath.dram.release_buffer_page()
            if self._trim_stamp.get(lpn, 0) > stamp:
                # Trimmed while the flush program was in flight: the
                # page lands physically but must not be mapped.
                self.blocks.commit_page(ppn, valid=False)
            else:
                self._bind(lpn, ppn)
            self.gc.maybe_trigger()

    def _allocate_with_gc(self) -> Generator:
        """Allocate a host page (its PPN), triggering and awaiting GC if
        starved."""
        return self.sim.wait_until(self.gc.preempt_poll_us,
                                   self._try_host_allocation)

    def _try_host_allocation(self):
        """One poll of :meth:`_allocate_with_gc`: a PPN, or None after
        counting the stall and forcing a GC episode.

        A starved device fails this tick every poll interval; while a
        GC episode runs, the failure reads two counters and calls
        nothing.
        """
        blocks = self.blocks
        if blocks.host_ready_count:
            ppn = blocks.try_allocate_page(for_gc=False)
            if ppn is not None:
                return ppn
        self.flush_stalls += 1
        gc = self.gc
        if not gc.active:
            gc.maybe_trigger(force=True)
        return None

    def _bind(self, lpn: int, ppn: int) -> None:
        old_ppn = self.mapping.bind(lpn, ppn)
        self.blocks.commit_page(ppn, valid=True)
        if old_ppn is not None:
            self.blocks.invalidate(old_ppn)

    # -- bookkeeping ---------------------------------------------------------------

    def _record(self, request: IoRequest, breakdown: Breakdown) -> None:
        latency = request.latency
        self.io_latency.add(latency)
        if request.op == READ:
            self.read_latency.add(latency)
        elif request.op == WRITE:
            self.write_latency.add(latency)
        if request.op != TRIM:   # trims move no data
            self.completed_bytes.add(
                self.sim.now, request.bytes(self.geometry.page_size)
            )
        self.requests_completed += 1
        if len(self.io_breakdowns) < _BREAKDOWN_SAMPLES:
            self.io_breakdowns.append(breakdown)

    @property
    def dirty_pages(self) -> int:
        """Pages currently staged in the write buffer."""
        return len(self._dirty)

    def mean_io_breakdown(self) -> Breakdown:
        """Component-wise mean of sampled per-request breakdowns."""
        return Breakdown.mean(self.io_breakdowns)

    def audit(self) -> List[str]:
        """Cross-check the translation invariants; returns violations.

        Verifies the LPN<->PPN mirror (both directions agree) and that
        the number of mapped LPNs equals the number of valid flash
        pages across all blocks.  Meant for quiescent points -- pages
        staged in the write buffer are not yet bound, so the counts
        only line up once the flushers have drained.  An empty list
        means the tables are consistent; the fuzzer's mapping oracle
        treats any entry as a violation.
        """
        problems: List[str] = []
        try:
            self.mapping.check_consistency()
        except MappingError as exc:
            problems.append(f"mapping mirror broken: {exc}")
        mapped = len(self.mapping)
        valid = sum(info.valid_count for info in self.blocks.blocks.values())
        if mapped != valid:
            problems.append(
                f"mapped LPNs ({mapped}) != valid flash pages ({valid})")
        return problems

    # -- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint of mapping, blocks, and all I/O meters.

        Only legal at a quiescent point: the write buffer must be
        drained (no dirty pages, empty flush queue) so no in-flight
        request state exists outside these tables.
        """
        if self._dirty or len(self._flush_queue):
            raise ConfigError(
                f"cannot snapshot FTL with {len(self._dirty)} dirty "
                f"page(s) and {len(self._flush_queue)} queued flush(es)")
        return {
            "mapping": self.mapping.state_dict(),
            "blocks": self.blocks.state_dict(),
            "io_latency": self.io_latency.state_dict(),
            "read_latency": self.read_latency.state_dict(),
            "write_latency": self.write_latency.state_dict(),
            "completed_bytes": self.completed_bytes.state_dict(),
            "requests_completed": self.requests_completed,
            "trims_processed": self.trims_processed,
            "flush_stalls": self.flush_stalls,
            "io_breakdowns": [b.parts for b in self.io_breakdowns],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (same geometry)."""
        self.mapping.load_state(state["mapping"])
        self.blocks.load_state(state["blocks"])
        self.io_latency.load_state(state["io_latency"])
        self.read_latency.load_state(state["read_latency"])
        self.write_latency.load_state(state["write_latency"])
        self.completed_bytes.load_state(state["completed_bytes"])
        self.requests_completed = int(state["requests_completed"])
        self.trims_processed = int(state["trims_processed"])
        self.flush_stalls = int(state["flush_stalls"])
        self.io_breakdowns = [Breakdown.from_parts(parts)
                              for parts in state["io_breakdowns"]]

    # -- pre-conditioning -------------------------------------------------------------

    def prefill(self, fill_fraction: float, valid_ratio: float,
                seed: int) -> int:
        """Instantly pre-condition the device (paper Sec 6.1).

        Marks ``fill_fraction`` of all blocks FULL; each filled block
        holds ``valid_ratio`` of its pages as valid mapped LPNs and the
        rest invalid (pre-invalidated so GC has work).  Returns the
        number of LPNs mapped, which are ``0 .. n - 1``.  Must run before
        any simulated traffic: raises :class:`ConfigError` when the
        mapping table already holds an LPN.

        The GC reserve is always left free: a fill fraction that rounds
        up to every block in a plane would otherwise pre-condition the
        device into a state garbage collection can never escape (no
        scratch block to relocate valid pages into).

        The page offsets come from :func:`_prefill_draws`, drawn once
        per process for each ``(seed, pages_per_block, n_valid, blocks
        filled)``.  Each plane is then laid down in bulk: one
        :meth:`BlockManager.prefill_plane` and one
        :meth:`PageMappingTable.bind_run` per plane, and one
        :meth:`FlashBackend.mark_programmed` for the device.
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ConfigError(f"fill_fraction out of (0,1]: {fill_fraction}")
        if not 0.0 <= valid_ratio <= 1.0:
            raise ConfigError(f"valid_ratio out of [0,1]: {valid_ratio}")
        if len(self.mapping):
            raise ConfigError(
                f"prefill needs an empty mapping table; it holds "
                f"{len(self.mapping)} lpns")
        geometry = self.geometry
        pages_per_block = geometry.pages_per_block
        blocks_per_plane = geometry.blocks_per_plane
        fill_per_plane = int(round(blocks_per_plane * fill_fraction))
        fill_cap = blocks_per_plane - self.blocks.gc_reserve_blocks
        fill_per_plane = min(fill_per_plane, max(fill_cap, 0))
        n_valid = int(round(pages_per_block * valid_ratio))
        infos = self.blocks.blocks
        # The block table's own keys, in index order: the backend's table
        # of programmed blocks then shares these int objects instead of
        # holding one more int per filled block for the device's life.
        numbers = list(infos)
        # Fill plane-by-plane so the surviving free blocks are spread
        # evenly across channels -- a linear fill would leave every free
        # block on the last channel and hotspot all future allocation.
        plan = [[block for block in numbers[base:base + fill_per_plane]
                 if infos[block].state == FREE]
                for base in range(0, geometry.blocks_total, blocks_per_plane)]
        draws = _prefill_draws(seed, pages_per_block, n_valid,
                                     sum(map(len, plan)))
        # Block i of the fill maps LPNs i * n_valid onwards, so an LPN
        # is also its page's position in the draw.
        lpn = 0
        for plane, blocks in enumerate(plan):
            end = lpn + len(blocks) * n_valid
            offsets = draws[lpn:end]
            self.blocks.prefill_plane(plane, blocks, offsets)
            # A bind per plane keeps set-up's temporaries small.
            first_ppns = [block * pages_per_block for block in blocks]
            self.mapping.bind_run(lpn, list(map(
                add, offsets, chain.from_iterable(
                    map(repeat, first_ppns, repeat(n_valid))))))
            lpn = end
        backend = getattr(self.datapath, "backend", None)
        if backend is not None:
            filled = list(chain.from_iterable(plan))
            if self.datapath.remapper is not None:
                # The datapath may remap logical block positions (SRT);
                # the *physical* block must read as written.
                remap = self.datapath.remap
                filled = [geometry.block_index(remap(infos[block].addr))
                          for block in filled]
            backend.mark_programmed(filled)
        return lpn
