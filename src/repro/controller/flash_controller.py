"""Conventional flash controller: one per flash channel.

The controller owns its channel's flash bus -- one ONFI-style
:class:`~repro.sim.Link` shared by every way on the channel (paper
Table 1: 1 GB/s), half-duplex, so reads and writes serialize on it --
and drives array operations on the dies behind it.  Its datapath
generators combine the flash-bus transfer with the array operation and
attribute the time spent to the breakdown components (``flash_bus`` vs
``flash_chip``).

Order of phases follows ONFI:

* read:    array read (cell -> page register), then bus transfer out;
* program: bus transfer in (register load), then array program;
* erase:   array only, no data on the bus.

Hot-path layout: ``read_page`` / ``program_page`` / ``erase_block`` are
the only implementation of a page read, a page program and a block
erase; every datapath op calls them.  Each validates and draws its
latency through ``backend.prepare_read``/``prepare_program``/
``prepare_erase``, holds the plane through
:meth:`~repro.sim.Resource.hold` and drives the flash-bus
transfer in its own frame.  Every page transfer costs the same
``_page_bytes``: the page plus the command/address cycles, expressed
as bytes-equivalent bus occupancy so that they serialize on the bus
too.  A fault injector, when attached, is a branch of that frame: a
transient fault hands over to
:meth:`FlashController.reissue_read` / :meth:`repeat_transfer`, which
pay the detection timeout and backoff before each retry.
"""

from __future__ import annotations

from typing import Generator

from ..errors import AddressError, ConfigError
from ..flash import FlashBackend, PhysAddr
from ..sim import Link, Simulator
from .breakdown import Breakdown

__all__ = ["FlashController"]

#: Default command/address cycle overhead per bus transaction (us).
DEFAULT_CMD_OVERHEAD_US = 0.2


class FlashController:
    """Datapath engine for one flash channel.

    *bandwidth* is the flash bus's bytes/us (1 GB/s == 1000.0);
    *cmd_overhead_us* the command/address cycles each page transfer
    adds.  Internal GC moves are urgent (they hold staging buffers and
    gate space reclamation), so a ``gc`` transfer with no explicit
    priority is served ahead of buffered host flush traffic.
    """

    def __init__(self, sim: Simulator, controller_id: int,
                 backend: FlashBackend, bandwidth: float = 1000.0,
                 cmd_overhead_us: float = DEFAULT_CMD_OVERHEAD_US):
        if bandwidth <= 0:
            raise ConfigError(
                f"flash bus bandwidth must be positive: {bandwidth}")
        if cmd_overhead_us < 0:
            raise ConfigError(f"negative command overhead: {cmd_overhead_us}")
        self.sim = sim
        self.controller_id = controller_id
        self.backend = backend
        self.geometry = backend.geometry
        self.flash_bus = Link(sim, bandwidth, name=f"flash_bus{controller_id}")
        self._page_bytes = (backend.geometry.page_size
                            + int(cmd_overhead_us * bandwidth))
        self.pages_read = 0
        self.pages_programmed = 0
        self.blocks_erased = 0
        #: Optional :class:`~repro.reliability.FaultInjector`.  When set,
        #: array reads and channel transfers roll transient faults and
        #: pay detection-timeout + exponential-backoff retries.  Array
        #: programs are never re-issued (NAND forbids reprogramming a
        #: page without an erase); only their bus transfer is retried.
        self.fault_injector = None

    def _check_owns(self, addr: PhysAddr) -> None:
        if addr.channel != self.controller_id:
            raise AddressError(
                f"controller {self.controller_id} asked to access channel "
                f"{addr.channel}: {addr}"
            )

    @property
    def page_size(self) -> int:
        """Device page size in bytes."""
        return self.geometry.page_size

    # -- single-page operations ----------------------------------------------

    def _fault_backoff(self, attempt: int,
                       breakdown: Breakdown) -> Generator:
        """Pay the fault detection/backoff delay; returns whether to retry."""
        t0 = self.sim.now
        proceed = yield from self.fault_injector.backoff_wait(attempt)
        breakdown.add("other", self.sim.now - t0)
        return proceed

    def reissue_read(self, addr: PhysAddr,
                     breakdown: Breakdown) -> Generator:
        """Re-issue an array read after a transient die fault.

        Each retry first waits out the injector's detection timeout with
        exponential backoff; stops once a read succeeds or the retries
        run out.  (Reads are idempotent; programs are never re-issued.)
        """
        attempt = 1
        while (yield from self._fault_backoff(attempt, breakdown)):
            plane, duration = self.backend.prepare_read(addr)
            wait = yield from plane.hold(duration)
            breakdown.add("flash_chip", wait + duration)
            if not self.fault_injector.die_fault():
                return
            attempt += 1

    def repeat_transfer(self, traffic_class: str, priority: int,
                        breakdown: Breakdown) -> Generator:
        """Repeat a page's bus transfer after a transient channel fault."""
        attempt = 1
        while (yield from self._fault_backoff(attempt, breakdown)):
            t0 = self.sim.now
            yield self.flash_bus.transfer(self._page_bytes, traffic_class,
                                          priority)
            breakdown.add("flash_bus", self.sim.now - t0)
            if not self.fault_injector.channel_fault():
                return
            attempt += 1

    def read_page(self, addr: PhysAddr, traffic_class: str = "io",
                  breakdown: Breakdown = None,
                  priority: int = None) -> Generator:
        """Generator: array read then bus transfer to the controller.

        With a fault injector attached, a transient die fault forces the
        (idempotent) array read to be re-issued and a transient channel
        fault forces the bus transfer to be repeated, each after a
        detection timeout with exponential backoff.
        """
        sim = self.sim
        self._check_owns(addr)
        if breakdown is None:
            breakdown = Breakdown()
        injector = self.fault_injector
        plane, duration = self.backend.prepare_read(addr)
        wait = yield from plane.hold(duration)
        breakdown.add("flash_chip", wait + duration)
        if injector is not None and injector.die_fault():
            yield from self.reissue_read(addr, breakdown)
        if priority is None:
            priority = -1 if traffic_class == "gc" else 0
        t0 = sim.now
        yield self.flash_bus.transfer(self._page_bytes, traffic_class,
                                      priority)
        breakdown.add("flash_bus", sim.now - t0)
        if injector is not None and injector.channel_fault():
            yield from self.repeat_transfer(traffic_class, priority,
                                            breakdown)
        self.pages_read += 1
        return breakdown

    def program_page(self, addr: PhysAddr, traffic_class: str = "io",
                     breakdown: Breakdown = None,
                     priority: int = None) -> Generator:
        """Generator: bus transfer into the register, then array program.

        A transient channel fault repeats the register load (retry with
        backoff); the array program itself is issued exactly once.
        """
        sim = self.sim
        self._check_owns(addr)
        if breakdown is None:
            breakdown = Breakdown()
        if priority is None:
            priority = -1 if traffic_class == "gc" else 0
        t0 = sim.now
        yield self.flash_bus.transfer(self._page_bytes, traffic_class,
                                      priority)
        breakdown.add("flash_bus", sim.now - t0)
        injector = self.fault_injector
        if injector is not None and injector.channel_fault():
            yield from self.repeat_transfer(traffic_class, priority,
                                            breakdown)
        plane, duration = self.backend.prepare_program(addr)
        wait = yield from plane.hold(duration)
        breakdown.add("flash_chip", wait + duration)
        self.pages_programmed += 1
        return breakdown

    def erase_block(self, addr: PhysAddr, traffic_class: str = "gc",
                    breakdown: Breakdown = None) -> Generator:
        """Generator: erase the block containing *addr*."""
        self._check_owns(addr)
        breakdown = breakdown if breakdown is not None else Breakdown()
        plane, duration = self.backend.prepare_erase(addr)
        wait = yield from plane.hold(duration)
        breakdown.add("flash_chip", wait + duration)
        self.blocks_erased += 1
        return breakdown
