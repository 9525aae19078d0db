"""Flash timing parameter presets (paper Table 1).

Latencies are microseconds.  TLC read/program latencies are ranges in the
paper ("read=60-95us, write=200-500us"); :class:`FlashTiming` stores the
range and exposes both the midpoint (for deterministic runs) and a seeded
sampler (for runs that model page-position-dependent latency).

Hot-path layout: deterministic latencies resolve through flat
per-``(op, channel)`` rows (:class:`TimingTable`) indexed by the
``OP_READ``/``OP_PROGRAM``/``OP_ERASE`` constants instead of per-call
property/branch chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import ConfigError

__all__ = ["FlashTiming", "TimingTable", "ULL_TIMING", "TLC_TIMING",
           "OP_READ", "OP_PROGRAM", "OP_ERASE"]

#: Operation indices into a :class:`TimingTable` row.
OP_READ, OP_PROGRAM, OP_ERASE = 0, 1, 2


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
        # The midpoints are read once per array op on the hot path;
        # resolve them once here (frozen dataclass, so via object
        # assignment) into the OP_*-indexed row.
        object.__setattr__(self, "_row", (
            (self.read_us[0] + self.read_us[1]) / 2.0,
            (self.program_us[0] + self.program_us[1]) / 2.0,
            self.erase_us,
        ))

    @property
    def read_mid(self) -> float:
        """Midpoint read latency."""
        return self._row[OP_READ]

    @property
    def program_mid(self) -> float:
        """Midpoint program latency."""
        return self._row[OP_PROGRAM]

    def op_row(self) -> Tuple[float, float, float]:
        """``(read, program, erase)`` latencies indexed by ``OP_*``."""
        return self._row

    def sample_read(self, rng: random.Random) -> float:
        """Draw a read latency uniformly from the device range."""
        low, high = self.read_us
        return rng.uniform(low, high)

    def sample_program(self, rng: random.Random) -> float:
        """Draw a program latency uniformly from the device range."""
        low, high = self.program_us
        return rng.uniform(low, high)


class TimingTable:
    """Flat per-``(op, channel)`` deterministic latency rows.

    Built once per device from the per-channel :class:`FlashTiming`
    presets (today every channel shares one preset; the table keeps the
    channel axis so heterogeneous-flash configs stay cheap).  Lookup is
    a single index: ``table.latency(op, channel)`` with the ``OP_*``
    constants -- no dict probing, no property descriptors, no branch
    chain on the per-op path.
    """

    __slots__ = ("_flat", "channels")

    def __init__(self, timings: Sequence[FlashTiming]):
        if not timings:
            raise ConfigError("TimingTable needs at least one channel timing")
        self.channels = len(timings)
        flat = []
        for timing in timings:
            flat.extend(timing.op_row())
        self._flat = tuple(flat)

    def latency(self, op: int, channel: int) -> float:
        """Deterministic latency of ``OP_*`` *op* on *channel*."""
        return self._flat[channel * 3 + op]

    def row(self, channel: int) -> Tuple[float, float, float]:
        """``(read, program, erase)`` for one channel."""
        base = channel * 3
        return self._flat[base:base + 3]


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
