"""Full-system SSD assembly and the run harness.

:func:`build_ssd` wires every substrate together according to an
:class:`~repro.core.config.SSDConfig` and returns a
:class:`SimulatedSSD`, whose :meth:`SimulatedSSD.run` drives a workload
through the device and returns a :class:`RunResult` with every metric
the paper's evaluation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..controller import (
    Breakdown,
    Dram,
    EccEngine,
    FlashController,
    HostInterface,
)
from ..errors import ConfigError
from ..flash import FlashBackend
from ..ftl import Ftl, GarbageCollector, GcStats, PageMappingTable, \
    StaticWearLeveler
from ..ftl.blocks import BlockManager
from ..host import MultiQueueFrontend, TenantSpec
from ..noc import Crossbar, FNoC, Mesh1D, Mesh2D, Ring
from ..sim import LatencyStats, Link, Simulator
from .config import ArchPreset, SSDConfig
from .datapath import BaselineDatapath, DecoupledDatapath
from .transport import (
    DedicatedBusTransport,
    FnocTransport,
    SharedBusTransport,
)

__all__ = ["MultiTenantResult", "RunResult", "SimulatedSSD",
           "TenantResult", "build_ssd"]

_TOPOLOGIES = {"mesh1d": Mesh1D, "mesh2d": Mesh2D, "ring": Ring,
               "crossbar": Crossbar}


@dataclass
class RunResult:
    """Everything measured during one :meth:`SimulatedSSD.run`."""

    arch: str
    duration_us: float
    io_latency: LatencyStats
    read_latency: LatencyStats
    write_latency: LatencyStats
    requests_completed: int
    io_bytes_completed: float
    gc: GcStats
    bus_utilization: float
    bus_io_utilization: float
    bus_gc_utilization: float
    dram_utilization: float
    mean_plane_utilization: float
    io_breakdown: Breakdown
    gc_breakdown: Breakdown
    bandwidth_timeline: Tuple[List[float], List[float]] = field(
        default_factory=lambda: ([], [])
    )
    bus_io_timeline: Tuple[List[float], List[float]] = field(
        default_factory=lambda: ([], [])
    )
    bus_gc_timeline: Tuple[List[float], List[float]] = field(
        default_factory=lambda: ([], [])
    )
    fnoc_mean_utilization: float = 0.0
    fnoc_packets: int = 0
    copybacks: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def io_bandwidth(self) -> float:
        """Mean achieved I/O bandwidth in bytes/us (== MB/s)."""
        if self.duration_us <= 0:
            return 0.0
        return self.io_bytes_completed / self.duration_us

    @property
    def gc_throughput(self) -> float:
        """GC pages moved per microsecond of active GC time."""
        return self.gc.throughput_pages_per_us

    def summary(self) -> Dict[str, float]:
        """Headline numbers for report tables."""
        return {
            "io_bandwidth_MBps": self.io_bandwidth,
            "io_p99_us": self.io_latency.p99,
            "io_mean_us": self.io_latency.mean,
            "gc_pages_moved": float(self.gc.pages_moved),
            "gc_throughput": self.gc_throughput,
            "bus_utilization": self.bus_utilization,
            "requests": float(self.requests_completed),
        }


@dataclass
class TenantResult:
    """One tenant's view of a :meth:`SimulatedSSD.run_tenants` window."""

    name: str
    driver: str
    arbiter: str
    arrivals: int
    admitted: int
    dropped: int
    dispatched: int
    completed: int
    bytes_completed: float
    duration_us: float
    latency: LatencyStats
    sq_wait: LatencyStats

    @property
    def iops(self) -> float:
        """Completions per simulated second."""
        if self.duration_us <= 0:
            return 0.0
        return self.completed / self.duration_us * 1e6

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/us (== MB/s)."""
        if self.duration_us <= 0:
            return 0.0
        return self.bytes_completed / self.duration_us

    @property
    def drop_fraction(self) -> float:
        """Fraction of arrivals rejected by admission control."""
        if self.arrivals <= 0:
            return 0.0
        return self.dropped / self.arrivals

    def summary(self) -> Dict[str, float]:
        """Headline per-tenant numbers for report tables."""
        return {
            "arrivals": float(self.arrivals),
            "dropped": float(self.dropped),
            "completed": float(self.completed),
            "iops": self.iops,
            "bandwidth_MBps": self.bandwidth,
            "mean_us": self.latency.mean,
            "p50_us": self.latency.p50,
            "p99_us": self.latency.p99,
            "sq_wait_mean_us": self.sq_wait.mean,
        }


@dataclass
class MultiTenantResult:
    """Device-level metrics plus the per-tenant breakdown."""

    device: RunResult
    tenants: List[TenantResult]
    arbiter: str
    arb_burst: int

    def tenant(self, name: str) -> TenantResult:
        """The result row of tenant *name*."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise ConfigError(f"no tenant named {name!r}")


class SimulatedSSD:
    """One fully-assembled simulated SSD instance (single use)."""

    def __init__(self, config: SSDConfig, remapper=None):
        self.config = config
        self.sim = Simulator()
        geometry = config.geometry
        self.backend = FlashBackend(
            self.sim, geometry, config.timing, seed=config.seed,
            deterministic_timing=config.deterministic_timing,
        )
        self.controllers = [
            FlashController(self.sim, c, self.backend,
                            config.flash_channel_bw)
            for c in range(geometry.channels)
        ]
        # The system bus (e.g. AXI) interconnects the host interface,
        # cores, DRAM, ECC and every flash controller (paper Fig 1).  It
        # is the contended resource this paper is about: host I/O
        # ("io") and GC page copies ("gc") serialize on it in a
        # conventional SSD, and the experiments plot each class's share
        # (Fig 2(c,d), 7(b)) -- so it is the one link that also keeps a
        # per-class byte timeline.
        self.bus = Link(self.sim, config.system_bus_bw, name="system_bus",
                        bin_width=config.bin_width_us)
        self.dram = Dram(self.sim, config.dram_bw,
                         write_buffer_pages=config.write_buffer_pages)
        self.host = HostInterface(self.sim, config.queue_depth,
                                  config.host_bw,
                                  config.host_cmd_latency_us)
        self.fnoc: Optional[FNoC] = None
        self.datapath = self._build_datapath(remapper)
        if config.read_retry:
            from ..flash import WearModel

            self.datapath.wear_model = WearModel(seed=config.seed)
        self.mapping = PageMappingTable(geometry.pages_total)
        self.blocks = BlockManager(geometry,
                                   gc_reserve_blocks=config.gc_reserve_blocks)
        self.gc = GarbageCollector(
            self.sim, self.mapping, self.blocks, self.datapath,
            host=self.host, policy=config.gc_policy,
            trigger_free_fraction=config.gc_trigger_free_fraction,
            stop_free_fraction=config.gc_stop_free_fraction,
            hard_floor_fraction=config.gc_hard_floor_fraction,
            tinytail_channels=config.tinytail_channels,
            partial_pages=config.tinytail_partial_pages,
            pipeline_depth=config.gc_pipeline_depth,
        )
        self.ftl = Ftl(
            self.sim, geometry, self.mapping, self.blocks, self.datapath,
            self.host, self.gc, write_policy=config.write_policy,
            flush_workers=config.effective_flush_workers,
            bin_width=config.bin_width_us,
        )
        self.wear_leveler: Optional[StaticWearLeveler] = None
        if config.wear_leveling:
            self.wear_leveler = StaticWearLeveler(
                self.sim, self.blocks, self.backend, self.gc,
                interval_us=config.wear_level_interval_us,
                threshold=config.wear_level_threshold,
            )
        self.reliability = None
        if config.reliability is not None:
            from ..reliability import ReliabilityEngine

            self.reliability = ReliabilityEngine(
                self.sim, self.backend, self.blocks, config.reliability,
                seed=config.seed,
            )
            self.reliability.attach(self.datapath)
        self.frontend: Optional[MultiQueueFrontend] = None
        self.lpn_space = 0
        self._prefilled = False
        self._measure_start = 0.0
        self._bus_busy_snapshot: Dict[str, float] = {}
        self._gc_snapshot = (0, 0.0)

    # -- construction helpers ----------------------------------------------------

    def _build_datapath(self, remapper):
        config = self.config
        if not config.arch.is_decoupled:
            shared_ecc = EccEngine(
                self.sim, config.ecc_throughput, config.ecc_fixed_latency_us,
                lanes=config.geometry.channels, name="ecc_pool",
            )
            return BaselineDatapath(self.sim, self.bus, self.dram,
                                    shared_ecc, self.controllers, remapper,
                                    staging_pages=config.page_buffer_pages)

        ecc_engines = [
            EccEngine(self.sim, config.ecc_throughput,
                      config.ecc_fixed_latency_us, lanes=1, name=f"ecc{c}")
            for c in range(config.geometry.channels)
        ]
        if config.arch is ArchPreset.DSSD:
            transport = SharedBusTransport(self.sim, self.bus)
        elif config.arch is ArchPreset.DSSD_B:
            transport = DedicatedBusTransport(self.sim,
                                              config.dedicated_bus_bw)
        elif config.arch is ArchPreset.DSSD_F:
            topo_cls = _TOPOLOGIES[config.fnoc_topology]
            topology = topo_cls(config.geometry.channels)
            channel_bw = config.effective_fnoc_channel_bw
            self.fnoc = FNoC(
                self.sim, topology, channel_bw,
                flit_bytes=config.fnoc_flit_bytes,
                buffer_flits=config.fnoc_buffer_flits,
                router_latency_us=config.fnoc_router_latency_us,
                ni_latency_us=config.fnoc_ni_latency_us,
            )
            transport = FnocTransport(self.sim, self.fnoc)
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigError(f"unhandled arch {config.arch}")
        return DecoupledDatapath(
            self.sim, self.bus, self.dram, ecc_engines, self.controllers,
            transport, dbuf_pages=config.dbuf_pages, remapper=remapper,
            check_ecc=config.copyback_ecc,
        )

    # -- pre-conditioning ------------------------------------------------------------

    def prefill(self) -> int:
        """Pre-condition the device per the config (idempotent)."""
        if not self._prefilled:
            self.lpn_space = self.ftl.prefill(
                fill_fraction=self.config.prefill_fraction,
                valid_ratio=self.config.prefill_valid_ratio,
                seed=self.config.seed,
            )
            self._prefilled = True
        return self.lpn_space

    # -- execution ---------------------------------------------------------------------

    def _reset_measurements(self) -> None:
        """Restart stats collection (end of the warmup window)."""
        self._measure_start = self.sim.now
        ftl = self.ftl
        ftl.io_latency = LatencyStats("io")
        ftl.read_latency = LatencyStats("read")
        ftl.write_latency = LatencyStats("write")
        ftl.requests_completed = 0
        ftl.io_breakdowns = []
        self._io_bytes_snapshot = ftl.completed_bytes.total()
        self._bus_busy_snapshot = dict(self.bus.busy_time)
        gc_stats = self.gc.stats
        gc_stats.move_breakdowns = []
        self._gc_snapshot = (gc_stats.pages_moved,
                             self.gc.current_busy_time())
        if self.frontend is not None:
            self.frontend.reset_stats()

    def _start(self, workloads: List[Tuple[object, int]],
               duration_us: Optional[float], warmup_us: float,
               trigger_gc: bool) -> None:
        """The start-up :meth:`run` and :meth:`run_tenants` share.

        Checks the stop time and the warmup, prefills, starts the
        flushers and the wear leveler, arms the warmup timer, binds
        each ``(workload, seed)`` in *workloads*, and gives GC its
        first chance to start; the caller then starts its drivers.
        *duration_us* is an absolute stop time, so it may not be past;
        the warmup, a delay from now, must end before it.
        """
        now = self.sim.now
        if duration_us is None:
            if warmup_us:
                # Without a stop time the run drains the queue, warmup
                # timer included: it would idle the clock past the last
                # request and then discard every measurement.
                raise ConfigError(
                    f"warmup_us={warmup_us} needs a duration_us to end "
                    "before; a max_requests-only run has none")
        else:
            if warmup_us and now + warmup_us >= duration_us:
                raise ConfigError(
                    f"warmup_us={warmup_us} from the device clock "
                    f"({now} us) must end before duration_us="
                    f"{duration_us}")
            if duration_us < now:
                raise ConfigError(
                    f"duration_us={duration_us} is before the device clock "
                    f"({now} us); it is an absolute stop time")
        self.prefill()
        self.ftl.start()
        if self.wear_leveler is not None:
            self.wear_leveler.start()
        self._io_bytes_snapshot = 0.0
        if warmup_us > 0:
            self.sim.schedule(warmup_us, self._reset_measurements)
        page_size = self.config.geometry.page_size
        for workload, seed in workloads:
            workload.bind(self.lpn_space, page_size, seed)
        if trigger_gc:
            self.gc.maybe_trigger()

    def run(self, workload, duration_us: Optional[float] = None,
            max_requests: Optional[int] = None,
            trigger_gc: bool = True,
            warmup_us: float = 0.0) -> RunResult:
        """Drive *workload* through the device and collect metrics.

        The driver is closed-loop: ``queue_depth`` driver processes each
        keep one request in flight, matching the paper's QD-64 setup.
        Stops when the device clock reaches *duration_us* (an absolute
        time, so never one the clock has passed) or after
        *max_requests* completions, whichever comes first.  Statistics
        gathered in the first *warmup_us* of the run (a delay from the
        current clock) are discarded, so steady-state metrics exclude
        the initial fill/ramp transient; a warmup needs a *duration_us*
        to end before.
        """
        if duration_us is None and max_requests is None:
            raise ConfigError("need duration_us and/or max_requests")
        self._start([(workload, self.config.seed)], duration_us, warmup_us,
                    trigger_gc)

        budget = {"remaining": max_requests if max_requests is not None
                  else float("inf")}
        deadline = duration_us if duration_us is not None else float("inf")

        def driver():
            while self.sim.now < deadline and budget["remaining"] > 0:
                request = workload.next_request()
                if request is None:
                    return
                budget["remaining"] -= 1
                yield self.ftl.submit(request)

        for _ in range(self.config.queue_depth):
            self.sim.process(driver(), name="driver")

        if duration_us is not None:
            self.sim.run(until=duration_us)
        else:
            self.sim.run()
        return self._collect()

    def run_tenants(self, tenants: List[TenantSpec],
                    duration_us: float,
                    warmup_us: float = 0.0,
                    trigger_gc: bool = True) -> MultiTenantResult:
        """Drive several tenant streams through the multi-queue frontend.

        Each :class:`~repro.host.TenantSpec` gets its own NVMe-style
        submission/completion queue pair; the config's ``arbiter`` /
        ``arb_burst`` pick the arbitration model multiplexing them onto
        the FTL.  Tenants may be closed-loop (the paper's model) or
        open-loop (Poisson / trace-timestamp arrivals), each carrying
        its own QoS policy (token-bucket rate limit, WRR weight,
        priority, admission control).  Statistics in the first
        *warmup_us* are discarded, as in :meth:`run`.
        """
        if duration_us is None or duration_us <= 0:
            raise ConfigError(f"duration_us must be positive: {duration_us}")
        if self.frontend is not None:
            raise ConfigError("run_tenants called twice on one SSD instance")
        # Built before the start-up, which it does not touch, so a
        # refused tenant list leaves the device as it was.
        frontend = MultiQueueFrontend(
            self.sim, self.ftl, tenants,
            arbiter=self.config.arbiter, arb_burst=self.config.arb_burst,
        )
        self._start([(spec.workload, spec.seed) for spec in tenants],
                    duration_us, warmup_us, trigger_gc)
        self.frontend = frontend
        frontend.start()
        self.sim.run(until=duration_us)
        device = self._collect()
        window = device.duration_us
        tenant_results = [
            TenantResult(
                name=spec.name,
                driver=spec.driver,
                arbiter=self.config.arbiter,
                arrivals=stats.arrivals,
                admitted=stats.admitted,
                dropped=stats.dropped,
                dispatched=stats.dispatched,
                completed=stats.completed,
                bytes_completed=stats.bytes_completed,
                duration_us=window,
                latency=stats.latency,
                sq_wait=stats.sq_wait,
            )
            for spec, stats in zip(self.frontend.tenants,
                                   self.frontend.stats)
        ]
        return MultiTenantResult(device=device, tenants=tenant_results,
                                 arbiter=self.config.arbiter,
                                 arb_burst=self.config.arb_burst)

    # -- checkpointing -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the device at a quiescent point.

        Returns a JSON-able dict that
        :func:`~repro.core.checkpoint.restore_ssd` turns back into a
        device whose continued run is byte-identical to never having
        stopped.  Only legal when nothing is in flight -- finish a
        ``max_requests``-bounded :meth:`run` first.  See
        :mod:`repro.core.checkpoint`.
        """
        from .checkpoint import snapshot_ssd

        return snapshot_ssd(self)

    def _collect(self) -> RunResult:
        horizon = self.sim.now
        window = max(horizon - self._measure_start, 1e-9)
        # Fold any still-running GC episode into the busy-time total so
        # throughput metrics are meaningful at the measurement cutoff.
        self.gc.stats.busy_time = self.gc.current_busy_time()
        self.gc._episode_start = self.sim.now
        times, rates = self.ftl.completed_bytes.series()

        def bus_util(traffic_class: Optional[str] = None) -> float:
            busy = self.bus.busy_time
            snapshot = self._bus_busy_snapshot
            if traffic_class is None:
                total = sum(busy.values()) - sum(snapshot.values())
            else:
                total = (busy.get(traffic_class, 0.0)
                         - snapshot.get(traffic_class, 0.0))
            return min(1.0, max(0.0, total / window))

        result = RunResult(
            arch=self.config.arch.value,
            duration_us=window,
            io_latency=self.ftl.io_latency,
            read_latency=self.ftl.read_latency,
            write_latency=self.ftl.write_latency,
            requests_completed=self.ftl.requests_completed,
            io_bytes_completed=(self.ftl.completed_bytes.total()
                                - self._io_bytes_snapshot),
            gc=self.gc.stats,
            bus_utilization=bus_util(),
            bus_io_utilization=bus_util("io"),
            bus_gc_utilization=bus_util("gc"),
            dram_utilization=self.dram.utilization(horizon),
            mean_plane_utilization=self.backend.mean_plane_utilization(),
            io_breakdown=self.ftl.mean_io_breakdown(),
            gc_breakdown=self.gc.stats.mean_move_breakdown(),
            bandwidth_timeline=(
                times,
                [r / self.ftl.completed_bytes.width for r in rates],
            ),
            bus_io_timeline=self.bus.bandwidth_timeline("io"),
            bus_gc_timeline=self.bus.bandwidth_timeline("gc"),
        )
        if self.fnoc is not None:
            result.fnoc_mean_utilization = self.fnoc.mean_channel_utilization()
            result.fnoc_packets = self.fnoc.packets_sent
        result.copybacks = getattr(self.datapath, "copybacks_completed", 0)
        moved0, busy0 = self._gc_snapshot
        result.extras["gc_pages_in_window"] = float(
            self.gc.stats.pages_moved - moved0
        )
        result.extras["gc_busy_in_window"] = max(
            self.gc.stats.busy_time - busy0, 0.0
        )
        result.extras["gc_move_latency_us"] = result.gc_breakdown.total
        result.extras["free_fraction_end"] = self.blocks.free_fraction
        if self.reliability is not None:
            for key, value in self.reliability.stats_dict().items():
                result.extras[f"rel_{key}"] = value
        return result


def build_ssd(arch: Union[ArchPreset, SSDConfig, str] = ArchPreset.BASELINE,
              remapper=None, **overrides) -> SimulatedSSD:
    """Build a ready-to-run SSD.

    *arch* may be an :class:`ArchPreset`, its string value
    (``"dssd_f"``), or a full :class:`SSDConfig`; keyword overrides are
    applied on top of the preset defaults.
    """
    if isinstance(arch, SSDConfig):
        if overrides:
            raise ConfigError(
                "pass overrides in the SSDConfig, not alongside it"
            )
        config = arch
    else:
        if isinstance(arch, str):
            arch = ArchPreset(arch)
        config = SSDConfig(arch=arch, **overrides)
    return SimulatedSSD(config, remapper=remapper)
