"""Fleet-scale sharded simulation on top of device checkpoints.

A *fleet* is N independent simulated SSDs -- heterogeneous
architectures, seeds, and pre-aged wear states -- serving a shared
population of tenant streams.  Devices never interact (each SSD is its
own DES kernel), so the fleet shards perfectly: every device is one
:class:`~repro.experiments.runner.PointSpec` fanned out over the
experiment runner's worker pool and content-addressed result cache.

The orchestration per shard:

1. **Age** -- build the device, prefill it, and
   :func:`~repro.core.checkpoint.fastforward_wear` it to its spec's P/E
   fraction.  The aged state is snapshotted once and cached under
   ``cache_dir()/snapshots/`` keyed by its build parameters, so a fleet
   of 16 devices sharing 4 (arch, age, seed) combinations pays the
   aging cost 4 times, not 16.
2. **Restore** -- the shard *always* boots via
   :func:`~repro.core.checkpoint.restore_ssd`, even when the snapshot
   was just taken in-process.  A freshly built device and a restored
   one park their flusher pools with different event sequence numbers;
   routing both paths through restore makes the cached and uncached
   runs byte-identical, which the runner's cache contract requires.
3. **Serve** -- tenants hash onto devices through the
   :class:`~repro.fleet.placement.ConsistentHashRing` and run through
   :meth:`~repro.core.ssd.SimulatedSSD.run_tenants`.  A device that
   drew no tenants reports zeroed stats without simulating.

Aggregation folds every shard's device-level latency recorder (raw
samples included) into one fleet :class:`~repro.sim.LatencyStats` via
:meth:`~repro.sim.LatencyStats.merge`, so the reported fleet p99/p999
are exact percentiles over the union of all per-device samples -- not
an average of per-device tails.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import __version__
from ..errors import ConfigError, SamplesUnavailableError
from ..sim import LatencyStats
from .placement import DEFAULT_VNODES, ConsistentHashRing

__all__ = [
    "DeviceSpec",
    "FleetSpec",
    "TenantStream",
    "device_snapshot_state",
    "run_fleet",
    "shard_point",
]

#: Geometry presets a device spec may name (JSON-able stand-ins for the
#: FlashGeometry factories in :mod:`repro.core.config`).
GEOMETRIES = ("sim", "paper", "superblock")


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated SSD of the fleet.

    ``age_pe_fraction`` pre-ages the device: every flash block starts
    at that fraction of its P/E limit (see
    :func:`~repro.core.checkpoint.fastforward_wear`).  ``overrides``
    are extra :class:`~repro.core.SSDConfig` keyword overrides and must
    be JSON-able (they ride inside the shard's cache key).
    """

    device_id: str
    arch: str = "baseline"
    age_pe_fraction: float = 0.0
    seed: int = 1
    geometry: str = "sim"
    overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ConfigError("device needs a device_id")
        if not 0.0 <= self.age_pe_fraction < 1.0:
            raise ConfigError(
                f"age_pe_fraction out of [0,1): {self.age_pe_fraction}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(
                f"unknown geometry {self.geometry!r}; "
                f"available: {GEOMETRIES}")


@dataclass(frozen=True)
class TenantStream:
    """One tenant request stream, placed on exactly one device.

    A JSON-able stand-in for :class:`~repro.host.TenantSpec` +
    :class:`~repro.workloads.SyntheticWorkload`: the stream is rebuilt
    inside the worker process, so the fleet spec itself stays plain
    data that can ride in a :class:`~repro.experiments.runner.PointSpec`.
    """

    name: str
    pattern: str = "mixed"
    io_size: int = 4096
    read_fraction: float = 0.5
    driver: str = "closed"
    queue_depth: int = 4
    rate_iops: Optional[float] = None
    seed: int = 1

    def params(self) -> Dict[str, object]:
        """The JSON dict shipped to the shard point."""
        return {
            "name": self.name,
            "pattern": self.pattern,
            "io_size": self.io_size,
            "read_fraction": self.read_fraction,
            "driver": self.driver,
            "queue_depth": self.queue_depth,
            "rate_iops": self.rate_iops,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet run: devices, tenant population, and the window."""

    devices: Sequence[DeviceSpec]
    tenants: Sequence[TenantStream]
    duration_us: float = 2000.0
    warmup_us: float = 0.0
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigError("fleet needs >= 1 device")
        ids = [device.device_id for device in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate device ids: {sorted(ids)}")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {sorted(names)}")
        if self.duration_us <= 0:
            raise ConfigError(
                f"duration_us must be positive: {self.duration_us}")

    def placement(self) -> Dict[str, List[str]]:
        """device_id -> ordered tenant names, via the consistent ring."""
        ring = ConsistentHashRing(
            [device.device_id for device in self.devices],
            vnodes=self.vnodes)
        return ring.assignments(tenant.name for tenant in self.tenants)


# -- aged-device snapshot cache ----------------------------------------------

def _snapshot_cache_path(params: Dict[str, object]):
    """Content-addressed path of one aged-device snapshot.

    The key covers the snapshot layout version, so a layout change
    misses the entries written under the old one.
    """
    from ..core import SNAPSHOT_SCHEMA
    from ..experiments.runner import cache_dir

    payload = json.dumps({"version": __version__,
                          "schema": SNAPSHOT_SCHEMA, **params},
                         sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return cache_dir() / "snapshots" / f"{digest}.json.gz"


def device_snapshot_state(arch: str, age_pe_fraction: float, seed: int,
                          geometry: str = "sim",
                          overrides: Optional[Dict] = None) -> dict:
    """The aged-device snapshot for one build recipe (cached on disk).

    Builds the device, prefills it, fast-forwards its wear, snapshots,
    and persists the snapshot under ``cache_dir()/snapshots/`` so every
    later shard (or fleet re-run) with the same recipe restores instead
    of re-aging.  ``REPRO_DSSD_CACHE=0`` disables the disk cache, same
    as for the point-result cache.  An entry that cannot be read back
    (torn gzip, bad JSON, another snapshot layout) is a miss: the state
    is rebuilt and the entry rewritten.
    """
    from ..core import (SNAPSHOT_SCHEMA, build_ssd, fastforward_wear,
                        load_snapshot, paper_geometry, save_snapshot,
                        sim_geometry, snapshot_ssd, superblock_geometry)

    overrides = dict(overrides or {})
    path = _snapshot_cache_path({
        "arch": arch, "age_pe_fraction": age_pe_fraction, "seed": seed,
        "geometry": geometry, "overrides": overrides,
    })
    cache = os.environ.get("REPRO_DSSD_CACHE", "") != "0"
    if cache and path.exists():
        try:
            cached = load_snapshot(path)
        except (OSError, EOFError, ValueError, zlib.error):
            cached = None
        if (isinstance(cached, dict)
                and cached.get("schema") == SNAPSHOT_SCHEMA):
            return cached
    factory = {"sim": sim_geometry, "paper": paper_geometry,
               "superblock": superblock_geometry}[geometry]
    ssd = build_ssd(arch, geometry=factory(), seed=seed, **overrides)
    ssd.prefill()
    if age_pe_fraction > 0.0:
        fastforward_wear(ssd, age_pe_fraction)
    state = snapshot_ssd(ssd)
    if cache:
        save_snapshot(state, path)
    return state


# -- the per-device shard point ----------------------------------------------

def _zero_shard(device_id: str) -> Dict[str, object]:
    """The report row of a device that drew no tenants (never simulated)."""
    return {
        "device_id": device_id,
        "tenant_names": [],
        "requests_completed": 0,
        "io_bandwidth_MBps": 0.0,
        "gc_pages_moved": 0,
        "io_latency": LatencyStats("io").state_dict(),
        "tenants": {},
    }


def shard_point(device_id: str, arch: str, age_pe_fraction: float,
                seed: int, geometry: str, overrides: Dict,
                tenants: List[Dict], duration_us: float,
                warmup_us: float) -> Dict[str, object]:
    """Run one device shard; return its JSON report row.

    Module-level and JSON-parameterized so it is picklable into the
    runner's worker pool and cacheable by content hash.  The device
    **always** boots through snapshot -> restore (see the module
    docstring) so cached and uncached aging produce identical event
    sequences.
    """
    from ..core import restore_ssd
    from ..host import TenantSpec
    from ..workloads import SyntheticWorkload

    if not tenants:
        return _zero_shard(device_id)
    state = device_snapshot_state(arch, age_pe_fraction, seed,
                                  geometry=geometry, overrides=overrides)
    ssd = restore_ssd(state)
    specs = [
        TenantSpec(
            name=tenant["name"],
            workload=SyntheticWorkload(
                pattern=tenant["pattern"],
                io_size=int(tenant["io_size"]),
                read_fraction=float(tenant["read_fraction"]),
            ),
            driver=tenant["driver"],
            queue_depth=int(tenant["queue_depth"]),
            rate_iops=tenant["rate_iops"],
            seed=int(tenant["seed"]),
        )
        for tenant in tenants
    ]
    result = ssd.run_tenants(specs, duration_us=duration_us,
                             warmup_us=warmup_us)
    device = result.device
    return {
        "device_id": device_id,
        "tenant_names": [tenant["name"] for tenant in tenants],
        "requests_completed": device.requests_completed,
        "io_bandwidth_MBps": device.io_bandwidth,
        "gc_pages_moved": device.gc.pages_moved,
        # Raw samples included: fleet percentiles merge exactly.
        "io_latency": device.io_latency.state_dict(),
        "tenants": {
            tenant.name: {
                "completed": tenant.completed,
                "iops": tenant.iops,
                "bandwidth_MBps": tenant.bandwidth,
                "latency": tenant.latency.state_dict(),
            }
            for tenant in result.tenants
        },
    }


# -- fleet orchestration ------------------------------------------------------

def run_fleet(spec: FleetSpec, point=None) -> Dict[str, object]:
    """Shard *spec* over the runner pool and aggregate fleet tails.

    Returns ``{"placement", "shards", "fleet"}``: the tenant placement
    map, one report row per device (in device order), and the
    fleet-level aggregate whose ``p99``/``p999`` are exact percentiles
    over the union of every device's latency samples.  Deterministic
    across ``--jobs`` values: shards are independent simulations and
    results return in spec order.

    *point* substitutes a different module-level shard function with
    :func:`shard_point`'s signature (the experiment harness passes its
    own so cache keys bind to the experiment module).
    """
    from ..experiments.runner import PointSpec, run_points

    placement = spec.placement()
    point_specs = [
        PointSpec.from_callable(
            point if point is not None else shard_point,
            {
                "device_id": device.device_id,
                "arch": device.arch,
                "age_pe_fraction": device.age_pe_fraction,
                "seed": device.seed,
                "geometry": device.geometry,
                "overrides": dict(device.overrides),
                "tenants": [
                    tenant.params() for tenant in spec.tenants
                    if tenant.name in assigned
                ],
                "duration_us": spec.duration_us,
                "warmup_us": spec.warmup_us,
            },
            key=f"fleet:{device.device_id}")
        for device in spec.devices
        for assigned in [set(placement[device.device_id])]
    ]
    shards = run_points(point_specs)

    fleet_latency = LatencyStats("fleet_io")
    requests = 0
    bandwidth = 0.0
    gc_pages = 0
    for shard in shards:
        fleet_latency.merge(LatencyStats.from_state(shard["io_latency"]))
        requests += int(shard["requests_completed"])
        bandwidth += float(shard["io_bandwidth_MBps"])
        gc_pages += int(shard["gc_pages_moved"])
    if not fleet_latency.keep_samples:
        # Merging one sample-free shard recorder silently degrades the
        # fleet recorder; fail here with the shard-level cause instead
        # of a bare SamplesUnavailableError at the p99 line below.
        raise SamplesUnavailableError(
            "a fleet shard shipped a keep_samples=False io_latency "
            "recorder; exact fleet percentiles need every shard's raw "
            "samples")
    active = sum(1 for shard in shards if shard["tenant_names"])
    return {
        "placement": placement,
        "shards": shards,
        "fleet": {
            "devices": len(shards),
            "active_devices": active,
            "tenants": len(spec.tenants),
            "requests_completed": requests,
            "aggregate_bandwidth_MBps": bandwidth,
            "gc_pages_moved": gc_pages,
            "io_mean_us": fleet_latency.mean,
            "io_p99_us": fleet_latency.p99,
            "io_p999_us": fleet_latency.pct(0.999),
        },
    }
