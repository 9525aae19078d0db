"""Flash timing parameter presets (paper Table 1).

Latencies are microseconds.  TLC read/program latencies are ranges in the
paper ("read=60-95us, write=200-500us"); :class:`FlashTiming` stores the
range and exposes both the midpoint (for deterministic runs) and a seeded
sampler (for runs that model page-position-dependent latency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError

__all__ = ["FlashTiming", "ULL_TIMING", "TLC_TIMING"]


@dataclass(frozen=True)
class FlashTiming:
    """Array-operation latencies for one flash technology."""

    name: str
    read_us: Tuple[float, float]
    program_us: Tuple[float, float]
    erase_us: float
    page_size: int

    def __post_init__(self) -> None:
        for field in ("read_us", "program_us"):
            low, high = getattr(self, field)
            if low <= 0 or high < low:
                raise ConfigError(f"invalid {field} range: ({low}, {high})")
        if self.erase_us <= 0:
            raise ConfigError(f"erase_us must be positive: {self.erase_us}")
        if self.page_size < 512:
            raise ConfigError(f"page_size too small: {self.page_size}")

    @property
    def read_mid(self) -> float:
        """Midpoint read latency."""
        return (self.read_us[0] + self.read_us[1]) / 2.0

    @property
    def program_mid(self) -> float:
        """Midpoint program latency."""
        return (self.program_us[0] + self.program_us[1]) / 2.0

    def sample_read(self, rng: random.Random) -> float:
        """Draw a read latency uniformly from the device range."""
        low, high = self.read_us
        return rng.uniform(low, high)

    def sample_program(self, rng: random.Random) -> float:
        """Draw a program latency uniformly from the device range."""
        low, high = self.program_us
        return rng.uniform(low, high)


#: Ultra-low-latency flash (paper Table 1 "Flash (ULL)").
ULL_TIMING = FlashTiming(
    name="ULL",
    read_us=(5.0, 5.0),
    program_us=(50.0, 50.0),
    erase_us=1000.0,
    page_size=4096,
)

#: Triple-level-cell flash (paper Table 1 "Memory (TLC)").
TLC_TIMING = FlashTiming(
    name="TLC",
    read_us=(60.0, 95.0),
    program_us=(200.0, 500.0),
    erase_us=2000.0,
    page_size=16384,
)
