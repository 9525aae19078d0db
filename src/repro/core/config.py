"""SSD configuration: Table 1 parameters and Table 2 architecture presets.

:class:`SSDConfig` is the single knob surface for the whole simulator.
The derived-bandwidth rules implement the paper's fairness constraint:
every non-baseline configuration gets the same ``onchip_bw_factor``
(default 1.25x) of total on-chip bandwidth, spent differently:

* ``BW`` and ``dSSD``   -- all of it widens the shared system bus;
* ``dSSD_b``            -- baseline system bus + a dedicated flash bus
  carrying the extra bandwidth;
* ``dSSD_f``            -- baseline system bus + an fNoC whose bisection
  bandwidth equals the extra bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError
from ..flash import FlashGeometry, FlashTiming, ULL_TIMING

__all__ = ["ArchPreset", "SSDConfig", "paper_geometry", "sim_geometry",
           "superblock_geometry"]


class ArchPreset(enum.Enum):
    """The five architectures of paper Table 2."""

    BASELINE = "baseline"   #: conventional SSD with parallel GC
    BW = "bw"               #: baseline + extra system-bus bandwidth
    DSSD = "dssd"           #: decoupled, copyback over the shared bus
    DSSD_B = "dssd_b"       #: decoupled, dedicated flash-interconnect bus
    DSSD_F = "dssd_f"       #: decoupled, fNoC

    @property
    def is_decoupled(self) -> bool:
        """Whether the preset uses decoupled flash controllers."""
        return self in (ArchPreset.DSSD, ArchPreset.DSSD_B, ArchPreset.DSSD_F)


def paper_geometry() -> FlashGeometry:
    """The full Table 1 ULL organization (large; slow to simulate)."""
    return FlashGeometry(channels=8, ways=8, dies=1, planes=8,
                         blocks_per_plane=1384, pages_per_block=384,
                         page_size=4096)


def sim_geometry(channels: int = 8, ways: int = 4, planes: int = 8,
                 blocks_per_plane: int = 20, pages_per_block: int = 32,
                 page_size: int = 4096) -> FlashGeometry:
    """A scaled-down organization with the paper's shape.

    The paper itself scales the device for feasible simulation time
    (Sec 6.4: "we simplified pages/block to 32"); we default the
    performance experiments to the same trick.
    """
    return FlashGeometry(channels=channels, ways=ways, dies=1,
                         planes=planes, blocks_per_plane=blocks_per_plane,
                         pages_per_block=pages_per_block,
                         page_size=page_size)


def superblock_geometry() -> FlashGeometry:
    """Paper Sec 6.1 footnote: 8ch x 4way x 2die x 2pl TLC, 32 pages/block."""
    return FlashGeometry(channels=8, ways=4, dies=2, planes=2,
                         blocks_per_plane=32, pages_per_block=32,
                         page_size=16384)


@dataclass
class SSDConfig:
    """Every tunable of the simulated SSD.  All bandwidths in bytes/us."""

    arch: ArchPreset = ArchPreset.BASELINE
    geometry: FlashGeometry = field(default_factory=sim_geometry)
    timing: FlashTiming = ULL_TIMING

    # Table 1 bandwidths.
    base_system_bus_bw: float = 8000.0
    dram_bw: float = 8000.0
    flash_channel_bw: float = 1000.0
    host_bw: float = 8000.0
    onchip_bw_factor: float = 1.25

    # Host interface.
    queue_depth: int = 64
    host_cmd_latency_us: float = 1.0

    # Multi-tenant frontend (run_tenants only).  ``arbiter`` picks the
    # NVMe arbitration model ("rr"/"wrr"/"prio"); ``arb_burst`` is the
    # arbitration burst -- commands fetched per queue per turn.
    arbiter: str = "rr"
    arb_burst: int = 1

    # FTL / buffering.
    write_policy: str = "writeback"
    write_buffer_pages: int = 2048
    flush_workers: Optional[int] = None   # None -> one per plane
    gc_policy: str = "pagc"
    gc_trigger_free_fraction: float = 0.10
    gc_stop_free_fraction: float = 0.20
    gc_hard_floor_fraction: float = 0.03
    gc_reserve_blocks: int = 2
    tinytail_channels: int = 1
    tinytail_partial_pages: int = 8
    gc_pipeline_depth: int = 4

    # Static wear leveling (off by default; the endurance experiments
    # model leveling analytically, but the DES supports it end to end).
    wear_leveling: bool = False
    wear_level_interval_us: float = 10_000.0
    wear_level_threshold: int = 8

    # ECC.
    ecc_throughput: float = 4000.0
    ecc_fixed_latency_us: float = 0.5

    # Decoupled controller.  The paper sizes the dBUF at two 32 KB
    # buffers per controller (16 x 4 KiB pages) -- 1/8th of the
    # conventional controller's page buffers (2 x 32 KB x 8 ways).
    dbuf_pages: int = 16
    page_buffer_pages: int = 128
    #: False = legacy unchecked copyback (ablation; propagates errors).
    copyback_ecc: bool = True
    #: Model wear-dependent read retries on the I/O read path.
    read_retry: bool = False

    #: Optional :class:`~repro.reliability.ReliabilityConfig`.  When set
    #: the device gets the full reliability stack: RBER sampling with an
    #: ECC read-retry ladder on every read-verify, GC copy error
    #: propagation tracking, bad-block remap/retirement, and transient
    #: fault injection.  Supersedes ``read_retry`` on the read path.
    reliability: Optional[object] = None

    # fNoC (dSSD_f only).
    fnoc_topology: str = "mesh1d"
    #: None derives the paper default: router channels at 2x the flash
    #: channel bandwidth -- the Fig 12 saturation point for 8 channels.
    fnoc_channel_bw: Optional[float] = None
    fnoc_flit_bytes: int = 256
    fnoc_buffer_flits: int = 16
    fnoc_router_latency_us: float = 0.01
    fnoc_ni_latency_us: float = 0.05

    # Pre-conditioning.
    prefill_fraction: float = 0.85
    prefill_valid_ratio: float = 0.45

    # Misc.
    seed: int = 1
    bin_width_us: float = 1000.0
    deterministic_timing: bool = True

    def __post_init__(self) -> None:
        if self.onchip_bw_factor < 1.0:
            raise ConfigError(
                f"onchip_bw_factor must be >= 1: {self.onchip_bw_factor}"
            )
        if self.base_system_bus_bw <= 0:
            raise ConfigError("base_system_bus_bw must be positive")
        if self.fnoc_topology not in ("mesh1d", "mesh2d", "ring",
                                      "crossbar"):
            raise ConfigError(f"unknown fNoC topology {self.fnoc_topology!r}")
        from ..host.arbiter import ARBITERS

        if self.arbiter not in ARBITERS:
            raise ConfigError(
                f"unknown arbiter {self.arbiter!r}; "
                f"available: {sorted(ARBITERS)}"
            )
        if self.arb_burst < 1:
            raise ConfigError(f"arb_burst must be >= 1: {self.arb_burst}")
        if self.reliability is not None:
            from ..reliability import ReliabilityConfig

            if not isinstance(self.reliability, ReliabilityConfig):
                raise ConfigError(
                    f"reliability must be a ReliabilityConfig, got "
                    f"{type(self.reliability).__name__}"
                )
        if not ArchPreset.BASELINE.value:  # pragma: no cover - sanity
            raise ConfigError("enum corrupted")

    # -- derived bandwidth rules ------------------------------------------------

    @property
    def extra_onchip_bw(self) -> float:
        """On-chip bandwidth above the baseline system bus."""
        return self.base_system_bus_bw * (self.onchip_bw_factor - 1.0)

    @property
    def system_bus_bw(self) -> float:
        """System-bus bandwidth for this architecture."""
        if self.arch in (ArchPreset.BW, ArchPreset.DSSD):
            return self.base_system_bus_bw * self.onchip_bw_factor
        return self.base_system_bus_bw

    @property
    def dedicated_bus_bw(self) -> float:
        """Dedicated flash-interconnect bandwidth (dSSD_b)."""
        return self.extra_onchip_bw

    @property
    def effective_fnoc_channel_bw(self) -> float:
        """Router channel bandwidth (paper rule: 2x flash channel)."""
        if self.fnoc_channel_bw is not None:
            return self.fnoc_channel_bw
        return 2.0 * self.flash_channel_bw

    @property
    def effective_flush_workers(self) -> int:
        """Flush worker count (defaults to one per plane)."""
        if self.flush_workers is not None:
            return self.flush_workers
        return self.geometry.planes_total

    def with_arch(self, arch: ArchPreset) -> "SSDConfig":
        """A copy of this config for another Table 2 architecture."""
        return replace(self, arch=arch)

    def describe(self) -> str:
        """One-line summary used by the experiment harness."""
        return (
            f"{self.arch.value}: bus={self.system_bus_bw / 1000:.1f}GB/s, "
            f"{self.geometry.describe()}, {self.timing.name}, "
            f"gc={self.gc_policy}"
        )
