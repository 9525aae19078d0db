"""ECC engine model (LDPC-style decode/encode latency).

An ECC engine checks (and possibly corrects) every page read -- for host
I/O *and* for GC copies.  Conventional SSDs place the engines near the
front-end; the decoupled SSD integrates one into each decoupled flash
controller so copybacks never leave the back-end unchecked (avoiding the
error propagation that bars legacy copyback commands).
"""

from __future__ import annotations

from typing import Generator

from ..errors import ConfigError
from ..sim import Resource, Simulator

__all__ = ["EccEngine", "DEFAULT_ECC_THROUGHPUT", "DEFAULT_ECC_FIXED_US"]

#: Default decode throughput, bytes/us (4 GB/s-class LDPC pipeline).
DEFAULT_ECC_THROUGHPUT = 4000.0
#: Fixed pipeline latency per codeword batch (us).
DEFAULT_ECC_FIXED_US = 0.5


class EccEngine:
    """A shared decode pipeline: fixed latency + size-proportional time."""

    def __init__(self, sim: Simulator, throughput: float = DEFAULT_ECC_THROUGHPUT,
                 fixed_latency_us: float = DEFAULT_ECC_FIXED_US,
                 lanes: int = 1, name: str = "ecc"):
        if throughput <= 0:
            raise ConfigError(f"ECC throughput must be positive: {throughput}")
        if fixed_latency_us < 0:
            raise ConfigError(f"negative ECC latency: {fixed_latency_us}")
        if lanes < 1:
            raise ConfigError(f"ECC lanes must be >= 1: {lanes}")
        self.sim = sim
        self.throughput = throughput
        self.fixed_latency_us = fixed_latency_us
        self.name = name
        self._lanes = Resource(sim, capacity=lanes, name=name)

    @property
    def pages_checked(self) -> int:
        """Decodes that started service (one cut short counts)."""
        return self._lanes.served

    @property
    def busy_time(self) -> float:
        """Lane-time spent decoding, summed over lanes (us)."""
        return self._lanes.busy_time

    def decode_time(self, nbytes: int) -> float:
        """Service time for checking *nbytes* of data."""
        return self.fixed_latency_us + nbytes / self.throughput

    def check(self, nbytes: int, priority: int = 0,
              scale: float = 1.0) -> Generator:
        """Hold a lane for one page's decode; ``yield from`` it for the wait.

        ``scale`` multiplies the decode time; read-retry ladder steps use
        it for escalating soft-decision decode latency.  The lane is held
        through :meth:`~repro.sim.Resource.hold`, so it is returned and
        ``busy_time`` / ``pages_checked`` are settled even when the
        calling generator is closed or raising mid-decode.
        """
        if nbytes <= 0:
            raise ConfigError(f"ECC check of {nbytes} bytes")
        if scale <= 0:
            raise ConfigError(f"ECC decode scale must be positive: {scale}")
        return self._lanes.hold(self.decode_time(nbytes) * scale, priority,
                                self.name or "ecc")

    def utilization(self, horizon: float = None) -> float:
        """Busy fraction of the engine (sums over lanes)."""
        return self._lanes.utilization(horizon)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint the engine meters (all lanes must be idle)."""
        if self._lanes.in_use or self._lanes.queue_length:
            raise ConfigError(f"cannot snapshot busy ECC engine {self.name!r}")
        return {"pages_checked": self.pages_checked,
                "busy_time": self.busy_time}

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict`."""
        self._lanes.served = int(state["pages_checked"])
        self._lanes.busy_time = float(state["busy_time"])
