"""The benchmark's pinned workloads and how one simulated point runs.

A workload is a fixed list of :class:`Point` objects, each one
simulation a paper figure runs.  Points are built only through the
public API (``build_ssd``, ``SimulatedSSD.prefill`` / ``run`` /
``run_tenants``, ``SyntheticWorkload``, ``make_msr_workload``,
``TenantSpec``).  With :data:`DEFAULT_SEED` every point is
byte-identical to the figure module's own quick-mode point:

* ``gc_write``     -- ``fig07_normalized.steady_point`` (Fig 7(a));
* ``tenants_nogc`` -- ``fig17_multitenant.tenant_point`` (Fig 17);
* ``trace_mix_gc`` -- ``fig11_tail_latency.trace_point`` for ``usr_0``.

Another seed shifts every random stream of a point (device seed,
workload/trace seed, tenant seeds) by the same offset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core import build_ssd, sim_geometry
from repro.host import QosPolicy, TenantSpec
from repro.workloads import SyntheticWorkload, make_msr_workload

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Point", "Sample", "run_point"]

#: The seed at which every point equals the figure's own point: the
#: device seed ``SSDConfig.seed`` defaults to 1.
DEFAULT_SEED = 1

#: Quick-mode windows of ``experiments.common.bench_durations``.
DURATION_US = 30_000.0
WARMUP_US = 10_000.0

DECOUPLED = ("dssd", "dssd_b", "dssd_f")


@dataclass(frozen=True)
class Point:
    """One simulated point: an SSD configuration plus the load it runs."""

    key: str
    arch: str
    #: ``seed -> load``: a workload for ``run`` or tenant specs for
    #: ``run_tenants``.
    load: Callable[[int], object]
    overrides: Dict[str, object] = field(default_factory=dict)
    tenants: bool = False
    #: Names from :data:`GUARDS` that must hold after every run.
    guards: Tuple[str, ...] = ()


@dataclass
class Sample:
    """Host timings and simulated outputs of one run of one point."""

    build_s: float
    prefill_s: float
    total_s: float
    #: Simulated outputs that must repeat exactly (see :func:`fingerprint`).
    fingerprint: Dict[str, float]
    #: Per-layer counts and utilizations read off the result objects.
    counts: Dict[str, float]
    #: ``time.perf_counter()`` when the build began.
    start: float

    @property
    def setup_s(self) -> float:
        return self.build_s + self.prefill_s


# -- workload definitions ---------------------------------------------------

def _seq_write(_seed: int) -> SyntheticWorkload:
    return SyntheticWorkload(pattern="seq_write", io_size=32768)


def _usr_0(seed: int):
    return make_msr_workload("usr_0", n_requests=1500, seed=seed + 7)


def _tenant_specs(scenario: str) -> Callable[[int], List[TenantSpec]]:
    """Fig 17's tenant mix for *scenario* (victim seed 7, aggressor 11)."""

    def specs(seed: int) -> List[TenantSpec]:
        victim_priority = 4 if scenario == "shared_noqos" else 0
        tenants = [TenantSpec(
            name="victim",
            workload=SyntheticWorkload(pattern="rand_write", io_size=16384),
            driver="poisson",
            rate_iops=20_000.0,
            qos=QosPolicy(rate_iops=25_000.0, burst_ops=4.0, weight=4,
                          priority=victim_priority),
            seed=seed + 6,
        )]
        if scenario != "solo":
            tenants.append(TenantSpec(
                name="aggressor",
                workload=SyntheticWorkload(pattern="rand_write",
                                           io_size=32768),
                driver="closed",
                queue_depth=28,
                qos=QosPolicy(weight=1, priority=4),
                seed=seed + 10,
            ))
        return tenants

    return specs


def _gc_write() -> List[Point]:
    points = []
    for arch in ("baseline", "bw") + DECOUPLED:
        guards = ["gc"]
        if arch in DECOUPLED:
            guards.append("copyback")
        if arch == "dssd_f":
            guards.append("fnoc")
        points.append(Point(f"fig7a:{arch}", arch, _seq_write,
                            guards=tuple(guards)))
    return points


def _tenants_nogc() -> List[Point]:
    # Fig 17's ten points have only three distinct outputs (solo, shared,
    # shared_noqos): without GC the baseline and dssd_f rows, and the rr
    # and wrr columns, simulate identically.  These four points still run
    # both arbiters, both QoS set-ups and both architectures, at 40% of
    # the cost, so a timed run fits several passes.
    cells = [("baseline", "rr", "solo"), ("baseline", "rr", "shared"),
             ("baseline", "wrr", "shared_noqos"), ("dssd_f", "wrr", "shared")]
    return [
        Point(f"fig17:{arch}/{arbiter}/{scenario}", arch,
              _tenant_specs(scenario),
              overrides={"arbiter": arbiter, "prefill_fraction": 0.5},
              tenants=True, guards=("no_gc", "no_fnoc"))
        for arch, arbiter, scenario in cells
    ]


def _trace_mix_gc() -> List[Point]:
    # Fig 11's bw column is left out: it runs the default GC policy, as
    # baseline does, and the bw device still runs under the preemptive
    # and tinytail points.  Four points keep two passes within a run.
    configs = (
        ("baseline", "baseline", {}, ("gc",)),
        ("preemptive", "bw", {"gc_policy": "preemptive"}, ("reads",)),
        ("tinytail", "bw", {"gc_policy": "tinytail"}, ("gc",)),
        ("dssd_f", "dssd_f", {}, ("gc", "fnoc")),
    )
    return [Point(f"fig11:usr_0/{label}", arch, _usr_0, overrides=overrides,
                  guards=guards)
            for label, arch, overrides, guards in configs]


WORKLOADS: Dict[str, List[Point]] = {
    "gc_write": _gc_write(),
    "tenants_nogc": _tenants_nogc(),
    "trace_mix_gc": _trace_mix_gc(),
}

#: Host seconds of one pass over each workload on a 2-core shared
#: x86-64 VM (Python 3.11).  They only turn ``--seconds`` into a fixed
#: pass count (``run.pass_count``).
PASS_SECONDS: Dict[str, float] = {
    "gc_write": 9.0,
    "tenants_nogc": 9.0,
    "trace_mix_gc": 20.0,
}

#: Workload-intent guards: name -> (holds(counts), what drifted).
GUARDS: Dict[str, Tuple[Callable[[Dict[str, float]], bool], str]] = {
    "gc": (lambda c: c["gc_pages"] > 0, "moved no GC pages"),
    "copyback": (lambda c: c["copybacks"] > 0, "issued no copybacks"),
    "fnoc": (lambda c: c["fnoc_packets"] > 0, "sent no fNoC packets"),
    "reads": (lambda c: c["reads"] > 0, "completed no reads"),
    "no_gc": (lambda c: c["gc_pages"] == 0, "moved GC pages"),
    "no_fnoc": (lambda c: c["fnoc_packets"] == 0, "sent fNoC packets"),
}


# -- running one point -------------------------------------------------------

def run_point(point: Point, seed: int, profiler=None) -> Sample:
    """Build, prefill and run *point*; check the mapping afterwards.

    *profiler* (a ``cProfile.Profile``) is enabled around the timed
    section only.  Raises on a simulation error or a broken mapping.
    """
    if profiler is not None:
        profiler.enable()
    t0 = time.perf_counter()
    ssd = build_ssd(point.arch, geometry=sim_geometry(), seed=seed,
                    **point.overrides)
    t1 = time.perf_counter()
    ssd.prefill()
    t2 = time.perf_counter()
    if point.tenants:
        multi = ssd.run_tenants(point.load(seed), duration_us=DURATION_US,
                                warmup_us=WARMUP_US)
        result = multi.device
        tenants = multi.tenants
    else:
        result = ssd.run(point.load(seed), duration_us=DURATION_US,
                         warmup_us=WARMUP_US)
        tenants = []
    t3 = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    ssd.mapping.check_consistency()

    fnoc_packets = ssd.fnoc.packets_sent if ssd.fnoc is not None else 0
    gc = ssd.gc.stats
    fp = {
        "events": ssd.sim._seq,
        "requests": result.requests_completed,
        "io_bytes": result.io_bytes_completed,
        "gc_pages": gc.pages_moved,
        "copybacks": result.copybacks,
        "fnoc_packets": fnoc_packets,
        "io_p99_us": result.io_latency.p99,
    }
    sq_count = sum(t.sq_wait.count for t in tenants)
    counts = dict(
        fp,
        reads=result.read_latency.count,
        read_p99_us=result.read_latency.p99,
        io_bw_MBps=result.io_bandwidth,
        gc_blocks=gc.blocks_erased,
        gc_move_us=result.extras["gc_move_latency_us"],
        fnoc_util=result.fnoc_mean_utilization,
        bus_util=result.bus_utilization,
        bus_gc_util=result.bus_gc_utilization,
        dram_util=result.dram_utilization,
        plane_util=result.mean_plane_utilization,
        host_dropped=sum(t.dropped for t in tenants),
        host_sq_wait_us=(sum(t.sq_wait.total for t in tenants) / sq_count
                         if sq_count else 0.0),
    )
    return Sample(build_s=t1 - t0, prefill_s=t2 - t1, total_s=t3 - t0,
                  fingerprint=fp, counts=counts, start=t0)


def guard_violations(point: Point, sample: Sample) -> List[str]:
    """Each workload-intent guard of *point* that *sample* breaks."""
    return [f"{point.key} {GUARDS[name][1]}"
            for name in point.guards
            if not GUARDS[name][0](sample.counts)]

