"""WAS: Wear-Aware superblock Scheduling, the software baseline [40].

WAS lets the *FTL* regroup superblocks from whatever good blocks remain,
using per-block endurance knowledge gathered by periodically scanning
RBER (reading at least one page per block).  Endurance is therefore
bounded only by the per-channel supply of good blocks -- better than the
hardware recycling policies -- but the scans consume system-bus, DRAM,
and flash bandwidth (the Fig 14(c) overhead this repo reproduces in the
DES experiment).

The endurance side is modeled with the same jump-to-next-failure trick
as :mod:`repro.superblock.endurance`: under wear-leveled writes, blocks
in each channel die in ascending order of their sampled P/E limits, and
a superblock can be formed as long as every channel still has a good
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import ConfigError
from ..flash.wear import PAPER_PE_MEAN, PAPER_PE_SIGMA

__all__ = ["WasConfig", "WasResult", "simulate_was"]


@dataclass
class WasConfig:
    """Parameters of a WAS endurance run."""

    n_superblocks: int = 512
    channels: int = 8
    pages_per_block: int = 32
    page_size: int = 16384
    pe_mean: float = PAPER_PE_MEAN
    pe_sigma: float = PAPER_PE_SIGMA
    stop_bad_fraction: float = 0.90
    #: WAS complements superblock grouping with page-level wear leveling
    #: (Wang et al., DAC'19), which stretches each block's usable P/E
    #: budget; modeled as a multiplicative endurance gain.
    leveling_gain: float = 1.12
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_superblocks < 2:
            raise ConfigError("need at least 2 superblocks")
        if self.leveling_gain < 1.0:
            raise ConfigError(
                f"leveling_gain must be >= 1: {self.leveling_gain}"
            )

    @property
    def superblock_bytes(self) -> int:
        """Bytes per full superblock program cycle."""
        return self.channels * self.pages_per_block * self.page_size


@dataclass
class WasResult:
    """Endurance curve of a WAS run."""

    config: WasConfig
    curve: List[Tuple[float, int]] = field(default_factory=list)
    total_bytes: float = 0.0

    def bytes_until_bad(self, n_bad: int):
        """Data written when formable superblocks first dropped by n_bad."""
        for total, bad in self.curve:
            if bad >= n_bad:
                return total
        return None

    def bytes_until_bad_fraction(self, fraction: float):
        """Data written when *fraction* of superblocks became unformable."""
        threshold = max(1, int(self.config.n_superblocks * fraction))
        return self.bytes_until_bad(threshold)

    @property
    def first_bad_bytes(self):
        """Data written when the first superblock became unformable."""
        return self.bytes_until_bad(1)


def simulate_was(config: WasConfig = None, **kwargs) -> WasResult:
    """Run the WAS endurance model.

    Under wear leveling every good block in a channel carries the same
    wear, so channel *c* loses its *k*-th block when the cumulative
    cycles reach its *k*-th smallest limit.  The number of formable
    superblocks after *w* cycles is ``min_c (blocks_c alive at w)``; the
    result curve reports that count against bytes written, with bytes
    accumulated over the *formable* superblocks at each wear level.
    """
    import numpy as np

    config = config if config is not None else WasConfig(**kwargs)
    rng = np.random.default_rng(config.seed)
    limits = np.maximum(1, np.rint(
        rng.normal(config.pe_mean, config.pe_sigma,
                   size=(config.n_superblocks, config.channels))
        * config.leveling_gain
    )).astype(np.int64)
    # Sorted death times per channel.
    deaths = np.sort(limits, axis=0)

    result = WasResult(config=config)
    sb_bytes = float(config.superblock_bytes)
    total_bytes = 0.0
    alive = config.n_superblocks
    stop_alive = config.n_superblocks - int(
        np.ceil(config.n_superblocks * config.stop_bad_fraction)
    )
    wear = 0
    # Pointers into each channel's sorted death list.
    idx = np.zeros(config.channels, dtype=np.int64)

    while alive > stop_alive:
        # Next death across channels.
        next_deaths = [
            deaths[idx[c], c] if idx[c] < config.n_superblocks else np.iinfo(np.int64).max
            for c in range(config.channels)
        ]
        channel = int(np.argmin(next_deaths))
        death_wear = int(next_deaths[channel])
        if death_wear == np.iinfo(np.int64).max:
            break
        delta = death_wear - wear
        if delta > 0:
            total_bytes += delta * alive * sb_bytes
            wear = death_wear
        idx[channel] += 1
        # Formable superblocks = min over channels of surviving blocks.
        survivors = config.n_superblocks - idx
        new_alive = int(survivors.min())
        if new_alive < alive:
            alive = new_alive
            result.curve.append(
                (total_bytes, config.n_superblocks - alive)
            )
    result.total_bytes = total_bytes
    return result
