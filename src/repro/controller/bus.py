"""SSD-controller system bus (e.g. AXI) and the dedicated dSSD_b bus.

The system bus interconnects the host interface, cores, DRAM, ECC, and
every flash controller (paper Fig 1).  It is the contended resource this
paper is about: host I/O and garbage-collection page copies serialize on
it in conventional SSDs.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import ConfigError
from ..sim import Link, Simulator

__all__ = ["SystemBus", "PAPER_SYSTEM_BUS_BW"]

#: Paper Table 1: system-bus = 8 GB/s (x1) == 8000 bytes/us.
PAPER_SYSTEM_BUS_BW = 8000.0


class SystemBus:
    """A serializing shared bus with per-class utilization accounting.

    ``bandwidth`` is bytes/us.  Traffic classes: ``"io"`` for host
    requests, ``"gc"`` for garbage-collection copies -- the experiments
    plot each class's utilization separately (paper Fig 2(c,d), 7(b)).
    It is the one link that also keeps a per-class byte timeline, in
    bins of *bin_width* us.
    """

    def __init__(self, sim: Simulator, bandwidth: float = PAPER_SYSTEM_BUS_BW,
                 name: str = "system_bus", bin_width: float = 1000.0):
        if bandwidth <= 0:
            raise ConfigError(f"bus bandwidth must be positive: {bandwidth}")
        self.sim = sim
        self.link = Link(sim, bandwidth, name=name, bin_width=bin_width)

    @property
    def bandwidth(self) -> float:
        """Bus bandwidth in bytes/us."""
        return self.link.bandwidth

    def transfer(self, nbytes: int, traffic_class: str = "io",
                 priority: int = 0) -> Generator:
        """Generator: move *nbytes* across the bus; returns queue wait."""
        wait = yield self.link.transfer(nbytes, traffic_class, priority)
        return wait

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Total busy fraction."""
        return self.link.utilization(horizon)

    def class_utilization(self, traffic_class: str,
                          horizon: Optional[float] = None) -> float:
        """Busy fraction attributable to one traffic class."""
        return self.link.class_utilization(traffic_class, horizon)

    def bandwidth_timeline(self, traffic_class: str):
        """Per-bin achieved bandwidth (bytes/us) for one class."""
        return self.link.bandwidth_timeline(traffic_class)

    def state_dict(self) -> dict:
        """Checkpoint the bus meters (the bus must be idle)."""
        return {"link": self.link.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict`."""
        self.link.load_state(state["link"])
