"""DRAM model: a bandwidth port plus the write-buffer slot pool.

The SSD's DRAM serves three roles in the paper's system: write-buffer
cache, mapping-table storage, and the staging area GC copies bounce
through in a conventional SSD.  We model its *port* as a serializing
link (Table 1: DRAM = 8 GB/s) and the write-buffer capacity as a slot
pool that backpressures host writes when the flush path falls behind --
the mechanism behind the Fig 2 bandwidth collapse during GC.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError
from ..sim import Link, Resource, Simulator

__all__ = ["Dram", "PAPER_DRAM_BW"]

#: Paper Table 1: DRAM = 8 GB/s == 8000 bytes/us.
PAPER_DRAM_BW = 8000.0


class Dram:
    """DRAM port bandwidth and write-buffer slot accounting."""

    def __init__(self, sim: Simulator, bandwidth: float = PAPER_DRAM_BW,
                 write_buffer_pages: int = 1024,
                 name: str = "dram"):
        if bandwidth <= 0:
            raise ConfigError(f"DRAM bandwidth must be positive: {bandwidth}")
        if write_buffer_pages < 1:
            raise ConfigError(
                f"write buffer needs >= 1 page: {write_buffer_pages}"
            )
        self.sim = sim
        # DDR-style duplex: independent read and write ports, each at the
        # rated bandwidth, so reads do not queue behind writes.
        self.read_link = Link(sim, bandwidth, name=f"{name}_rd")
        self.write_link = Link(sim, bandwidth, name=f"{name}_wr")
        self.write_buffer = Resource(sim, write_buffer_pages,
                                     name="write_buffer")

    @property
    def bandwidth(self) -> float:
        """DRAM per-port bandwidth in bytes/us."""
        return self.read_link.bandwidth

    @property
    def buffered_pages(self) -> int:
        """Write-buffer pages currently occupied (dirty)."""
        return self.write_buffer.in_use

    def reserve_buffer_page(self):
        """Event granting one write-buffer slot (may backpressure)."""
        return self.write_buffer.acquire()

    def release_buffer_page(self) -> None:
        """Return one write-buffer slot after its page is flushed."""
        self.write_buffer.release()

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Mean busy fraction across the two DRAM ports."""
        return (self.read_link.utilization(horizon)
                + self.write_link.utilization(horizon)) / 2.0

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint port meters; the write buffer must be drained."""
        if self.buffered_pages:
            raise ConfigError(
                f"cannot snapshot DRAM with {self.buffered_pages} dirty "
                "write-buffer page(s)")
        return {"read_link": self.read_link.state_dict(),
                "write_link": self.write_link.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict`."""
        self.read_link.load_state(state["read_link"])
        self.write_link.load_state(state["write_link"])
