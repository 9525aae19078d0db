"""Flash bus channel model.

One ONFI-style bus per channel (paper Table 1: 1 GB/s -- 1000 MHz, 8 bit)
shared by all ways on the channel.  Data transfers serialize on the bus;
each command additionally costs a small fixed command/address overhead.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import ConfigError
from ..sim import Link, Simulator

__all__ = ["FlashChannel"]

#: Default command/address cycle overhead per bus transaction (us).
DEFAULT_CMD_OVERHEAD_US = 0.2


class FlashChannel:
    """The shared data bus of one flash channel.

    ``bandwidth`` is bytes/us (1 GB/s == 1000.0).  The channel is
    half-duplex: reads and writes serialize on one :class:`Link`.
    """

    def __init__(self, sim: Simulator, channel_id: int,
                 bandwidth: float = 1000.0,
                 cmd_overhead_us: float = DEFAULT_CMD_OVERHEAD_US):
        if bandwidth <= 0:
            raise ConfigError(f"channel bandwidth must be positive: {bandwidth}")
        if cmd_overhead_us < 0:
            raise ConfigError(f"negative command overhead: {cmd_overhead_us}")
        self.sim = sim
        self.channel_id = channel_id
        self.cmd_overhead_us = cmd_overhead_us
        self.link = Link(sim, bandwidth, name=f"flash_bus{channel_id}")
        #: Command/address overhead expressed as bytes-equivalent bus
        #: occupancy -- resolved once (both parameters are fixed at
        #: construction) instead of per transaction on the hot path.
        self._overhead_bytes = int(cmd_overhead_us * self.link.bandwidth)

    @property
    def bandwidth(self) -> float:
        """Bus bandwidth in bytes/us."""
        return self.link.bandwidth

    def transfer(self, nbytes: int, traffic_class: str = "io",
                 priority: int = None) -> Generator:
        """Generator: move *nbytes* over the bus; returns queueing wait.

        The fixed command overhead is modeled as extra bytes-equivalent
        occupancy so that it also serializes on the bus.  Internal GC
        moves are urgent (they hold staging buffers and gate space
        reclamation), so the channel command scheduler services ``gc``
        transactions ahead of buffered host flush traffic by default.
        """
        if priority is None:
            priority = -1 if traffic_class == "gc" else 0
        wait = yield self.link.transfer(
            nbytes + self._overhead_bytes, traffic_class, priority
        )
        return wait

    def occupancy(self, nbytes: int) -> float:
        """Service time (us) for an *nbytes* transaction incl. overhead."""
        return self.cmd_overhead_us + nbytes / self.link.bandwidth

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Busy fraction of the bus."""
        return self.link.utilization(horizon)

    def state_dict(self) -> dict:
        """Checkpoint the bus meters (the bus must be idle)."""
        return {"link": self.link.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict`."""
        self.link.load_state(state["link"])
