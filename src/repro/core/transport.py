"""Controller-to-controller transports for internal data movement.

The Table 2 configurations differ only in *how* a copyback page moves
between two decoupled flash controllers:

* :class:`SharedBusTransport` (``dSSD``) -- one traversal of the shared
  system bus, controller to controller, no DRAM bounce;
* :class:`DedicatedBusTransport` (``dSSD_b``) -- a separate serial bus
  that only interconnects the flash controllers;
* :class:`FnocTransport` (``dSSD_f``) -- the flash-controller
  network-on-chip.

Each transport's ``move`` is a generator that attributes its time to the
right breakdown component (``system_bus`` for dSSD, ``fnoc`` for the
dedicated bus and the NoC).
"""

from __future__ import annotations

from typing import Generator

from ..controller import Breakdown
from ..noc import FNoC, Packet
from ..sim import Link, Simulator

__all__ = [
    "CopybackTransport",
    "SharedBusTransport",
    "DedicatedBusTransport",
    "FnocTransport",
]


class CopybackTransport:
    """Interface: move *nbytes* from one controller to another."""

    name = "abstract"

    def move(self, src_controller: int, dst_controller: int, nbytes: int,
             breakdown: Breakdown,
             traffic_class: str = "gc") -> Generator:
        """Generator: complete when the page has arrived at *dst*."""
        raise NotImplementedError
        yield  # pragma: no cover


class SharedBusTransport(CopybackTransport):
    """dSSD: copybacks cross the *shared* system bus exactly once."""

    name = "shared_bus"

    def __init__(self, sim: Simulator, bus: Link):
        self.sim = sim
        self.bus = bus

    def move(self, src_controller: int, dst_controller: int, nbytes: int,
             breakdown: Breakdown,
             traffic_class: str = "gc") -> Generator:
        t0 = self.sim.now
        yield self.bus.transfer(nbytes, traffic_class)
        breakdown.add("system_bus", self.sim.now - t0)


class DedicatedBusTransport(CopybackTransport):
    """dSSD_b: a private bus serializes all controller-to-controller moves."""

    name = "dedicated_bus"

    def __init__(self, sim: Simulator, bandwidth: float):
        self.sim = sim
        self.link = Link(sim, bandwidth, name="dedicated_bus")

    def move(self, src_controller: int, dst_controller: int, nbytes: int,
             breakdown: Breakdown,
             traffic_class: str = "gc") -> Generator:
        t0 = self.sim.now
        yield self.link.transfer(nbytes, traffic_class)
        breakdown.add("fnoc", self.sim.now - t0)


class FnocTransport(CopybackTransport):
    """dSSD_f: pages are packetized and routed across the fNoC."""

    name = "fnoc"

    def __init__(self, sim: Simulator, fnoc: FNoC):
        self.sim = sim
        self.fnoc = fnoc

    def move(self, src_controller: int, dst_controller: int, nbytes: int,
             breakdown: Breakdown,
             traffic_class: str = "gc") -> Generator:
        t0 = self.sim.now
        packet = Packet(src=src_controller, dst=dst_controller,
                        payload_bytes=nbytes, traffic_class=traffic_class)
        yield from self.fnoc.send(packet)
        breakdown.add("fnoc", self.sim.now - t0)
