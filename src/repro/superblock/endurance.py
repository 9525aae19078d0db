"""Block-wear endurance simulator for dynamic superblocks (Fig 14/16).

A fast, event-jumped wear simulation -- deliberately *not* the DES.  The
workload is the paper's: a continuous stream of large sequential writes
with wear-leveled allocation, so every alive superblock accumulates P/E
cycles uniformly.  Under uniform wear the next uncorrectable error is
simply the minimum remaining endurance over all alive sub-blocks, so the
simulator jumps from failure to failure instead of cycling page writes:
each iteration handles one block death, and total work is proportional
to the number of failures rather than the number of writes.

Each failure is reported to :class:`~.manager.DynamicSuperblockManager`,
the protocol the DES runs too, which decides remap or retirement; the
simulator keeps only the wear arithmetic.

Policies (paper Sec 5):

* ``baseline``  -- static superblocks: first sub-block failure kills the
  whole superblock.
* ``recycled``  -- surviving sub-blocks of a dead superblock enter the
  per-channel RBT; later failures are remapped onto recycled blocks via
  the SRT so the superblock lives on.
* ``reserv``    -- recycled, plus ``reserve_fraction`` of superblocks is
  withheld up front to pre-populate the RBTs (delaying the *first* bad
  superblock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..flash.wear import PAPER_PE_MEAN, PAPER_PE_SIGMA
from .manager import DynamicSuperblockManager

__all__ = ["EnduranceConfig", "EnduranceResult", "EnduranceSimulator",
           "POLICIES"]

POLICIES = ("baseline", "recycled", "reserv")


@dataclass
class EnduranceConfig:
    """Parameters of one endurance run."""

    n_superblocks: int = 512
    channels: int = 8
    pages_per_block: int = 32
    page_size: int = 16384
    pe_mean: float = PAPER_PE_MEAN
    pe_sigma: float = PAPER_PE_SIGMA
    policy: str = "baseline"
    reserve_fraction: float = 0.07      # paper: 7 % provisioned
    srt_capacity: Optional[int] = 1024  # entries per channel; None = inf
    stop_bad_fraction: float = 0.90     # run until 90 % superblocks bad
    seed: int = 1
    #: Optional ECC budget: a block is dead once its RBER (reliability
    #: layer's wear curve, ``rber_base * exp(rber_growth * pe/limit)``)
    #: crosses this value, which caps the Gaussian P/E draw.  ``None``
    #: keeps the raw draws (the paper's pure-wear model).
    uncorrectable_rber: Optional[float] = None
    rber_base: float = 1e-7
    rber_growth: float = 8.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown endurance policy {self.policy!r}")
        if self.uncorrectable_rber is not None:
            from ..reliability.rber import pe_fraction_at_rber

            # Raises ConfigError on bad values; result used in the sim.
            pe_fraction_at_rber(self.uncorrectable_rber, self.rber_base,
                                self.rber_growth)
        if self.n_superblocks < 2:
            raise ConfigError("need at least 2 superblocks")
        if not 0.0 <= self.reserve_fraction < 0.5:
            raise ConfigError(
                f"reserve_fraction out of [0, 0.5): {self.reserve_fraction}"
            )
        if not 0.0 < self.stop_bad_fraction <= 1.0:
            raise ConfigError(
                f"stop_bad_fraction out of (0,1]: {self.stop_bad_fraction}"
            )

    @property
    def superblock_bytes(self) -> int:
        """Bytes written per full superblock program cycle."""
        return self.channels * self.pages_per_block * self.page_size


@dataclass
class EnduranceResult:
    """Output of one endurance run."""

    config: EnduranceConfig
    #: Monotone curve: (total bytes written, bad superblock count).
    curve: List[Tuple[float, int]] = field(default_factory=list)
    total_bytes: float = 0.0
    remap_events: int = 0
    srt_rejections: int = 0
    #: Per-channel (insert count, active entries) logs (Fig 16(b)).
    srt_occupancy: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict)
    #: Peak live entries of any one channel's SRT over the run.
    max_active_srt_entries: int = 0

    def bytes_until_bad(self, n_bad: int) -> Optional[float]:
        """Data written when the *n_bad*-th superblock died."""
        for total, bad in self.curve:
            if bad >= n_bad:
                return total
        return None

    def bytes_until_bad_fraction(self, fraction: float) -> Optional[float]:
        """Data written when *fraction* of superblocks had died."""
        threshold = max(1, int(self.config.n_superblocks * fraction))
        return self.bytes_until_bad(threshold)

    @property
    def first_bad_bytes(self) -> Optional[float]:
        """Data written at the first bad superblock."""
        return self.bytes_until_bad(1)


class EnduranceSimulator:
    """Jump-to-next-failure wear simulation over (superblock, channel).

    ``limits`` and ``wear`` are indexed by the physical sub-block
    ``manager.resolve`` names; ``wear`` is brought up to date when a
    failure is reported, so a recycled sub-block keeps what it had.
    """

    def __init__(self, config: EnduranceConfig):
        import numpy as np

        self.config = config
        rng = np.random.default_rng(config.seed)
        total = config.n_superblocks
        reserved = 0
        if config.policy == "reserv":
            reserved = int(round(total * config.reserve_fraction))
            reserved = min(reserved, total - 1)
        self.reserved = reserved
        self.manager = DynamicSuperblockManager(
            total, config.channels, srt_capacity=config.srt_capacity,
            reserved_superblocks=reserved)
        self.visible = self.manager.visible

        draws = rng.normal(config.pe_mean, config.pe_sigma,
                           size=(total, config.channels))
        if config.uncorrectable_rber is not None:
            from ..reliability.rber import pe_fraction_at_rber

            fraction = pe_fraction_at_rber(
                config.uncorrectable_rber, config.rber_base,
                config.rber_growth,
            )
            if fraction < 1.0:
                draws = np.floor(draws * fraction)
        self.limits = np.maximum(1, np.rint(draws)).astype(np.int64)
        self.wear = np.zeros_like(self.limits)
        self.result = EnduranceResult(config=config)

    # -- core loop -----------------------------------------------------------

    def run(self) -> EnduranceResult:
        """Advance failure-by-failure until the stop fraction is bad."""
        import numpy as np

        config = self.config
        manager = self.manager
        limits, wear = self.limits, self.wear
        # Cycles left per visible position; a retired row stays far
        # above every live one.
        remaining = limits[:self.visible].copy()
        retired = np.iinfo(np.int64).max
        stop_bad = int(np.ceil(self.visible * config.stop_bad_fraction))
        sb_bytes = float(config.superblock_bytes)
        total_bytes = 0.0
        bad = 0

        while bad < stop_bad:
            flat = int(np.argmin(remaining))
            sb, channel = divmod(flat, config.channels)
            delta = int(remaining[sb, channel])
            if delta > 0:
                # Every alive superblock absorbs `delta` more P/E cycles.
                remaining -= delta
                total_bytes += (delta * float(self.visible - bad)
                                * sb_bytes)
            outcome = "superblock_dead"
            if config.policy != "baseline":
                # A sub-block worn out at this instant is dead too, so a
                # retirement does not recycle it.
                for c in range(config.channels):
                    sub = manager.resolve(sb, c)
                    wear[sub] = limits[sub] - remaining[sb, c]
                    if remaining[sb, c] == 0:
                        manager.dead_subblocks.add(sub)
                outcome = manager.on_uncorrectable(sb, channel)
            if outcome == "remapped":
                sub = manager.resolve(sb, channel)
                remaining[sb, channel] = limits[sub] - wear[sub]
                self.result.remap_events += 1
            else:
                remaining[sb] = retired
                bad += 1
            self.result.curve.append((total_bytes, bad))

        self.result.total_bytes = total_bytes
        self.result.srt_occupancy = {
            c: list(manager.srt[c].occupancy_log)
            for c in range(config.channels)
        }
        self.result.srt_rejections = sum(t.rejected for t in manager.srt)
        # Entries rise only on an insert, so the logs hold the peak.
        self.result.max_active_srt_entries = max(
            (active for log in self.result.srt_occupancy.values()
             for _event, active in log), default=0)
        return self.result


def run_endurance(policy: str = "baseline", **kwargs) -> EnduranceResult:
    """Convenience: build and run one endurance simulation."""
    config = EnduranceConfig(policy=policy, **kwargs)
    return EnduranceSimulator(config).run()
