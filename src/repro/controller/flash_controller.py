"""Conventional flash controller: one per flash channel.

The controller owns its channel's bus and drives array operations on the
dies behind it.  Its datapath generators combine the flash-bus transfer
with the array operation and attribute the time spent to the breakdown
components (``flash_bus`` vs ``flash_chip``).

Order of phases follows ONFI:

* read:    array read (cell -> page register), then bus transfer out;
* program: bus transfer in (register load), then array program;
* erase:   array only, no data on the bus.

Hot-path layout: ``read_page`` / ``program_page`` are the only
implementation of a page read or program; every datapath op calls them.
Each validates and draws its latency through
``backend.prepare_read``/``prepare_program``, holds the plane through
:meth:`~repro.flash.FlashPlane.occupy` and drives the channel transfer
in its own frame.  A fault injector, when attached, is a branch of that
frame: a transient fault hands over to
:meth:`FlashController.reissue_read` / :meth:`repeat_transfer`, which
pay the detection timeout and backoff before each retry.
"""

from __future__ import annotations

from typing import Generator

from ..errors import AddressError
from ..flash import FlashBackend, FlashChannel, PhysAddr
from ..sim import Simulator
from .breakdown import Breakdown

__all__ = ["FlashController"]


class FlashController:
    """Datapath engine for one flash channel."""

    def __init__(self, sim: Simulator, controller_id: int,
                 channel: FlashChannel, backend: FlashBackend):
        self.sim = sim
        self.controller_id = controller_id
        self.channel = channel
        self.backend = backend
        self.geometry = backend.geometry
        self._page_size = backend.geometry.page_size
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
            op = yield from self.backend.read(addr)
            breakdown.add("flash_chip", op.total)
            if not self.fault_injector.die_fault():
                return
            attempt += 1

    def repeat_transfer(self, traffic_class: str, priority: int,
                        breakdown: Breakdown) -> Generator:
        """Repeat a page's bus transfer after a transient channel fault."""
        attempt = 1
        while (yield from self._fault_backoff(attempt, breakdown)):
            t0 = self.sim.now
            yield from self.channel.transfer(self._page_size, traffic_class,
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
        wait = yield from plane.occupy(duration)
        breakdown.add("flash_chip", wait + duration)
        if injector is not None and injector.die_fault():
            yield from self.reissue_read(addr, breakdown)
        channel = self.channel
        if priority is None:
            priority = -1 if traffic_class == "gc" else 0
        t0 = sim.now
        yield channel.link.transfer(
            self._page_size + channel._overhead_bytes, traffic_class,
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
        channel = self.channel
        if priority is None:
            priority = -1 if traffic_class == "gc" else 0
        t0 = sim.now
        yield channel.link.transfer(
            self._page_size + channel._overhead_bytes, traffic_class,
            priority)
        breakdown.add("flash_bus", sim.now - t0)
        injector = self.fault_injector
        if injector is not None and injector.channel_fault():
            yield from self.repeat_transfer(traffic_class, priority,
                                            breakdown)
        plane, duration = self.backend.prepare_program(addr)
        wait = yield from plane.occupy(duration)
        breakdown.add("flash_chip", wait + duration)
        self.pages_programmed += 1
        return breakdown

    def erase_block(self, addr: PhysAddr, traffic_class: str = "gc",
                    breakdown: Breakdown = None) -> Generator:
        """Generator: erase the block containing *addr*."""
        self._check_owns(addr)
        breakdown = breakdown if breakdown is not None else Breakdown()
        op = yield from self.backend.erase(addr)
        breakdown.add("flash_chip", op.total)
        self.blocks_erased += 1
        return breakdown
