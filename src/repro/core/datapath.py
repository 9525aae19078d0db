"""Architecture datapaths: who moves the bytes, over which resources.

:class:`BaselineDatapath` is the conventional coupled SSD -- every GC
page copy bounces through the front-end (system bus -> DRAM -> system
bus).  :class:`DecoupledDatapath` implements the paper's contribution:
the decoupled flash controller executes a *global copyback* entirely in
the back-end, staging the page in its dBUF, checking it with its
integrated ECC engine, and handing it to a controller-to-controller
transport (shared bus, dedicated bus, or fNoC).

Host I/O takes the identical path on every architecture (paper Sec 4.1:
"the datapath used for the I/O commands is the same as the conventional
SSD").

Hot-path layout: each datapath op (``io_read_flash``,
``io_flush_write``, ``io_program``, ``io_dram_rw``, ``gc_move``) drives
the system bus and DRAM links itself and delegates each flash stage to
the one implementation of it: the array read or program plus its
channel transfer to :meth:`FlashController.read_page` /
``program_page`` (which hold the plane through ``Resource.hold``
and own the fault injector's die/channel retries), and the ECC decode
to :meth:`EccEngine.check`.  Host I/O runs them at its own priority,
GC in the ``"gc"`` class at priority -1.  The optional hooks are
branches of the op, each one ``is None`` test when absent: the
reliability engine's read-verify ladder (``post_read``) and copy
bookkeeping (``commit_copy``), and the wear model's read-retry passes.
``yield from`` adds no kernel entry, so the layering leaves the event
stream alone; ``tests/test_kernel_fastpath.py`` pins the dispatched
event stream and the resource meters of every op, with and without
the hooks, to recorded values.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..controller import Breakdown, Dram, EccEngine, FlashController
from ..errors import ConfigError
from ..flash import PhysAddr
from ..sim import Link, Resource, Simulator
from .copyback import CopybackCommand, CopybackStatus
from .transport import CopybackTransport

__all__ = ["BaselineDatapath", "DecoupledDatapath"]

#: Type of the optional physical-address remap hook (SRT layer).
Remapper = Callable[[PhysAddr], PhysAddr]


class BaselineDatapath:
    """Conventional coupled SSD datapath."""

    def __init__(self, sim: Simulator, bus: Link, dram: Dram,
                 ecc: EccEngine, controllers: List[FlashController],
                 remapper: Optional[Remapper] = None,
                 staging_pages: int = 16):
        self.sim = sim
        self.bus = bus
        self.dram = dram
        self.ecc = ecc
        self.controllers = controllers
        self.remapper = remapper
        self.backend = controllers[0].backend
        self.page_size = controllers[0].page_size
        self.copybacks_completed = 0
        #: Optional :class:`~repro.flash.WearModel`: when set, reads to
        #: worn blocks pay read-retry passes (extra array read + ECC).
        self.wear_model = None
        self.read_retries_performed = 0
        #: Optional :class:`~repro.reliability.ReliabilityEngine`.  When
        #: attached it owns the read-verify path (RBER sampling + ECC
        #: read-retry ladder) and the copy error-propagation bookkeeping.
        self.reliability = None
        # GC copies stage through each controller's page buffers; the
        # buffer capacity bounds in-flight GC pages per channel exactly
        # as the dBUF does in the decoupled architectures (keeping the
        # comparison's staging capacity equal across Table 2 configs).
        self.gc_staging = [
            Resource(sim, staging_pages, name=f"staging{c.controller_id}")
            for c in controllers
        ]

    # -- shared helpers ------------------------------------------------------

    def remap(self, addr: PhysAddr) -> PhysAddr:
        """Apply the hardware remap layer (dynamic superblocks), if any."""
        return self.remapper(addr) if self.remapper is not None else addr

    def controller_for(self, addr: PhysAddr) -> FlashController:
        """The flash controller owning *addr*'s channel."""
        return self.controllers[addr.channel]

    def ecc_for(self, channel: int) -> EccEngine:
        """ECC engine used for traffic on *channel* (shared front pool)."""
        return self.ecc

    def _read_retries(self, addr: PhysAddr) -> int:
        block_index = self.backend.geometry.block_index(addr)
        erase_count = self.backend.erase_count(addr)
        return self.wear_model.read_retries(erase_count, block_index)

    def _gc_check(self, src: PhysAddr, breakdown: Breakdown) -> Generator:
        """A GC copy's error check: the reliability ladder, or one decode.

        Returns the reliability engine's read outcome (None without it).
        """
        if self.reliability is not None:
            return (yield from self.reliability.post_read(src, breakdown,
                                                          0, "gc"))
        sim = self.sim
        t0 = sim.now
        yield from self.ecc_for(src.channel).check(self.page_size, 0)
        breakdown.add("ecc", sim.now - t0)
        return None

    # -- host I/O paths ----------------------------------------------------------

    def io_dram_rw(self, nbytes: int, breakdown: Breakdown,
                   direction: str = "write",
                   priority: int = 0) -> Generator:
        """DRAM-serviced I/O: one bus traversal plus one DRAM access."""
        sim = self.sim
        t0 = sim.now
        yield self.bus.transfer(nbytes, "io", priority)
        breakdown.add("system_bus", sim.now - t0)
        t0 = sim.now
        link = (self.dram.read_link if direction == "read"
                else self.dram.write_link)
        yield link.transfer(nbytes, "io", priority)
        breakdown.add("dram", sim.now - t0)

    def io_read_flash(self, addr: PhysAddr, breakdown: Breakdown,
                      priority: int = 0) -> Generator:
        """Flash read: array -> flash bus -> ECC -> system bus.

        With the reliability engine attached, its read-verify ladder
        replaces the single ECC decode.  Otherwise worn blocks may need
        read-retry passes (wear model): each retry repeats the array
        read and the ECC decode before the data is trusted.
        """
        sim = self.sim
        page_size = self.page_size
        if self.remapper is not None:
            addr = self.remapper(addr)
        controller = self.controllers[addr.channel]
        yield from controller.read_page(addr, "io", breakdown, priority)
        if self.reliability is not None:
            yield from self.reliability.post_read(addr, breakdown,
                                                  priority, "io")
        else:
            # ECC decode (front-end pool or integrated engine).
            engine = self.ecc_for(addr.channel)
            t0 = sim.now
            yield from engine.check(page_size, priority)
            breakdown.add("ecc", sim.now - t0)
            if self.wear_model is not None:
                for _retry in range(self._read_retries(addr)):
                    self.read_retries_performed += 1
                    yield from controller.read_page(addr, "io", breakdown,
                                                    priority)
                    t0 = sim.now
                    yield from engine.check(page_size, priority)
                    breakdown.add("ecc", sim.now - t0)
        # System bus to the host interface.
        t0 = sim.now
        yield self.bus.transfer(page_size, "io", priority)
        breakdown.add("system_bus", sim.now - t0)

    def io_flush_write(self, addr: PhysAddr,
                       breakdown: Breakdown) -> Generator:
        """Write-back flush: DRAM read -> system bus -> flash program."""
        return self._write_page(addr, breakdown, 0, True)

    def io_program(self, addr: PhysAddr, breakdown: Breakdown,
                   priority: int = 0) -> Generator:
        """Write-through program: system bus -> flash program."""
        return self._write_page(addr, breakdown, priority, False)

    def _write_page(self, addr: PhysAddr, breakdown: Breakdown,
                    priority: int, from_dram: bool) -> Generator:
        """Host page write: [DRAM read ->] system bus -> flash program."""
        sim = self.sim
        page_size = self.page_size
        if self.remapper is not None:
            addr = self.remapper(addr)
        if from_dram:
            t0 = sim.now
            yield self.dram.read_link.transfer(page_size, "io", 0)
            breakdown.add("dram", sim.now - t0)
        t0 = sim.now
        yield self.bus.transfer(page_size, "io", priority)
        breakdown.add("system_bus", sim.now - t0)
        yield from self.controllers[addr.channel].program_page(
            addr, "io", breakdown, priority)
        if self.reliability is not None:
            self.reliability.on_program(addr)

    # -- garbage-collection paths ---------------------------------------------------

    def gc_move(self, src: PhysAddr, dst: PhysAddr,
                apply_remap: bool = True) -> Generator:
        """Conventional GC copy: the page crosses the front-end twice.

        flash read -> system bus -> ECC -> DRAM write -> DRAM read ->
        system bus -> flash program (paper Fig 1).  ``apply_remap=False``
        addresses raw physical blocks -- used by the dynamic-superblock
        recycling copy, which itself installs the remap entries.
        """
        sim = self.sim
        page_size = self.page_size
        if apply_remap and self.remapper is not None:
            src = self.remapper(src)
            dst = self.remapper(dst)
        breakdown = Breakdown()
        src_pool = self.gc_staging[src.channel]
        src_grant = src_pool.acquire()
        try:
            yield src_grant
            yield from self.controllers[src.channel].read_page(
                src, "gc", breakdown, -1)
            # System bus into the front end.
            t0 = sim.now
            yield self.bus.transfer(page_size, "gc", 0)
            breakdown.add("system_bus", sim.now - t0)
            # The conventional GC copy always passes the front-end ECC,
            # so errors never propagate -- at the price of crossing the
            # whole front-end (the paper's Fig 1 argument).
            outcome = yield from self._gc_check(src, breakdown)
            # Stage in DRAM.
            t0 = sim.now
            yield self.dram.write_link.transfer(page_size, "gc", 0)
            breakdown.add("dram", sim.now - t0)
        finally:
            src_pool.cancel(src_grant)
        dst_pool = self.gc_staging[dst.channel]
        dst_grant = dst_pool.acquire()
        try:
            yield dst_grant
            t0 = sim.now
            yield self.dram.read_link.transfer(page_size, "gc", 0)
            breakdown.add("dram", sim.now - t0)
            t0 = sim.now
            yield self.bus.transfer(page_size, "gc", 0)
            breakdown.add("system_bus", sim.now - t0)
            yield from self.controllers[dst.channel].program_page(
                dst, "gc", breakdown, -1)
            if self.reliability is not None:
                self.reliability.commit_copy(src, dst, checked=True,
                                             outcome=outcome)
        finally:
            dst_pool.cancel(dst_grant)
        return breakdown

    def gc_erase(self, addr: PhysAddr, apply_remap: bool = True) -> Generator:
        """Erase a victim block."""
        if apply_remap:
            addr = self.remap(addr)
        breakdown = Breakdown()
        yield from self.controller_for(addr).erase_block(addr, "gc",
                                                         breakdown)
        if self.reliability is not None:
            self.reliability.on_erase_block(addr)
        return breakdown


class DecoupledDatapath(BaselineDatapath):
    """dSSD / dSSD_b / dSSD_f datapath: back-end global copyback.

    Each decoupled controller has its own integrated ECC engine and a
    dBUF of ``dbuf_pages`` page slots.  GC copies never touch the DRAM,
    and cross the system bus only in the plain-``dSSD`` configuration
    (whose transport *is* the shared bus, one traversal, no DRAM).
    """

    def __init__(self, sim: Simulator, bus: Link, dram: Dram,
                 ecc_engines: List[EccEngine],
                 controllers: List[FlashController],
                 transport: CopybackTransport,
                 dbuf_pages: int = 16,
                 remapper: Optional[Remapper] = None,
                 check_ecc: bool = True):
        if len(ecc_engines) != len(controllers):
            raise ConfigError(
                "decoupled datapath needs one ECC engine per controller"
            )
        if dbuf_pages < 2:
            raise ConfigError(f"dbuf_pages must be >= 2: {dbuf_pages}")
        super().__init__(sim, bus, dram, ecc_engines[0], controllers,
                         remapper, staging_pages=dbuf_pages)
        self.ecc_engines = ecc_engines
        self.transport = transport
        # check_ecc=False models *legacy* copyback semantics: the page is
        # copied without error check/correction, so bit errors propagate
        # silently -- the very reason copyback is unusable in
        # conventional SSDs (Sec 4.2).  Kept as an ablation knob.
        self.check_ecc = check_ecc
        self.unchecked_copies = 0
        self.dbufs = [
            Resource(sim, dbuf_pages, name=f"dbuf{c.controller_id}")
            for c in controllers
        ]
        self.copyback_log: List[CopybackCommand] = []
        self.copyback_log_limit = 1024

    def ecc_for(self, channel: int) -> EccEngine:
        """The integrated ECC engine of *channel*'s decoupled controller."""
        return self.ecc_engines[channel]

    def gc_move(self, src: PhysAddr, dst: PhysAddr,
                apply_remap: bool = True) -> Generator:
        """Global copyback (paper Fig 4): the page never leaves the back-end.

        Read into the source controller's dBUF, check with its integrated
        ECC engine, then program -- straight from that dBUF on a
        same-channel copy, otherwise after the transport hop (fNoC packet
        walk / dedicated bus / shared bus) into the destination dBUF.
        """
        sim = self.sim
        page_size = self.page_size
        if apply_remap and self.remapper is not None:
            src = self.remapper(src)
            dst = self.remapper(dst)
        # Command bookkeeping exists only to feed the copyback log; once
        # the log is full the per-stage status tracking is dead work on
        # the hottest GC path, so skip it entirely (timing unchanged).
        if len(self.copyback_log) < self.copyback_log_limit:
            command = CopybackCommand(src=src, dst=dst)
            self.copyback_log.append(command)
        else:
            command = None
        reliability = self.reliability
        outcome = None
        breakdown = Breakdown()

        # (2,3) read the page into the source controller's dBUF.
        dbuf = self.dbufs[src.channel]
        slot = dbuf.acquire()
        try:
            yield slot
            yield from self.controllers[src.channel].read_page(
                src, "gc", breakdown, -1)
            if command is not None:
                command.advance(CopybackStatus.READ, sim.now)

            # (4) error check with the integrated ECC engine.
            if not self.check_ecc:
                self.unchecked_copies += 1
            else:
                outcome = yield from self._gc_check(src, breakdown)
            if command is not None:
                command.advance(CopybackStatus.READ_ECC, sim.now)

            if src.channel != dst.channel:
                # (5-8) packetize and traverse the interconnect into the
                # destination dBUF.  The source slot is released once the
                # page is handed to the network interface -- holding both
                # slots while waiting for the destination could deadlock
                # opposing copyback streams.
                if command is not None:
                    command.advance(CopybackStatus.PACKETIZED, sim.now)
                dbuf.cancel(slot)
                dbuf = self.dbufs[dst.channel]
                slot = dbuf.acquire()
                yield slot
                yield from self.transport.move(src.channel, dst.channel,
                                               page_size, breakdown)
                if command is not None:
                    command.advance(CopybackStatus.TRANSFERRED, sim.now)

            # (9,10) program at the destination -- on a same-channel copy
            # straight from the source dBUF.
            yield from self.controllers[dst.channel].program_page(
                dst, "gc", breakdown, -1)
            if command is not None:
                command.advance(CopybackStatus.WRITTEN, sim.now)
        finally:
            dbuf.cancel(slot)

        if reliability is not None:
            reliability.commit_copy(src, dst, checked=self.check_ecc,
                                    outcome=outcome)
        self.copybacks_completed += 1
        return breakdown
