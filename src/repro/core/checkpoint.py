"""Versioned device checkpoints: snapshot, restore, fast-forward.

A *snapshot* captures the complete observable state of a quiescent
:class:`~repro.core.ssd.SimulatedSSD` -- FTL mapping and block pools,
per-block flash wear, superblock SRT/RBT tables, reliability page
records, every accumulated meter, every RNG stream, and the DES clock --
as one JSON-able dict.  Restoring the snapshot into a freshly built
device and continuing the run is **byte-identical** to never having
stopped: the same traces, the same latency samples, the same experiment
tables (``tests/test_checkpoint.py`` proves it per architecture).

Quiescence is the load-bearing constraint.  Generator-based processes
cannot be serialized, so a snapshot is only legal when no callback is
scheduled and no request is in flight: the host queue is empty, the
write buffer is drained, and no GC episode is running.  Driving a run
with ``max_requests`` (no ``duration_us``) ends at exactly such a
point.  Configurations with background wear-leveling keep a perpetual
timer in the event heap and therefore cannot snapshot (the kernel
raises).

Fast-forwarding (:func:`fastforward_wear`) ages a device analytically
-- bumping every block's erase count to a fraction of its sampled P/E
limit -- so endurance and fleet experiments start from worn devices
without simulating months of traffic.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
from pathlib import Path
from typing import List, Optional, Union

from ..errors import SnapshotError
from ..flash import FlashGeometry, FlashTiming, PhysAddr
from .config import ArchPreset, SSDConfig
from .copyback import CopybackCommand
from .datapath import DecoupledDatapath
from .transport import DedicatedBusTransport

__all__ = [
    "DURABLE_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "config_from_state",
    "config_to_state",
    "durable_state",
    "fastforward_wear",
    "load_snapshot",
    "quiescence_report",
    "recover_ssd",
    "restore_ssd",
    "save_snapshot",
    "snapshot_ssd",
]

#: Bump on any incompatible change to the snapshot layout.  Schema 4:
#: the system-bus and flash-bus entries are plain ``Link`` states, no
#: longer nested under a ``"link"`` key.  Schema 5: latency recorders
#: carry no ``"m2"``/``"mean"`` (Welford) terms.
SNAPSHOT_SCHEMA = 5

#: Bump on any incompatible change to the durable-projection layout.
DURABLE_SCHEMA = 1


# -- config round-trip --------------------------------------------------------

def config_to_state(config: SSDConfig) -> dict:
    """JSON-able encoding of an :class:`SSDConfig` (nested dataclasses)."""
    state = dataclasses.asdict(config)
    state["arch"] = config.arch.value
    return state


def config_from_state(state: dict) -> SSDConfig:
    """Rebuild the exact :class:`SSDConfig` a snapshot was taken with.

    JSON turns tuples into lists, so the tuple-typed fields (flash
    timing ranges, ECC ladder steps) are coerced back on the way in.
    """
    state = dict(state)
    arch = ArchPreset(state.pop("arch"))
    geometry = FlashGeometry(
        **{key: int(value)
           for key, value in state.pop("geometry").items()})
    timing_state = dict(state.pop("timing"))
    timing = FlashTiming(
        name=timing_state["name"],
        read_us=tuple(float(v) for v in timing_state["read_us"]),
        program_us=tuple(float(v) for v in timing_state["program_us"]),
        erase_us=float(timing_state["erase_us"]),
        page_size=int(timing_state["page_size"]),
    )
    reliability_state = state.pop("reliability")
    reliability = None
    if reliability_state is not None:
        from ..reliability import ReliabilityConfig

        reliability_state = dict(reliability_state)
        reliability_state["ladder_correct_bits"] = tuple(
            int(v) for v in reliability_state["ladder_correct_bits"])
        reliability_state["ladder_latency_scales"] = tuple(
            float(v) for v in reliability_state["ladder_latency_scales"])
        reliability = ReliabilityConfig(**reliability_state)
    return SSDConfig(arch=arch, geometry=geometry, timing=timing,
                     reliability=reliability, **state)


# -- snapshot -----------------------------------------------------------------

def _copyback_log_state(log) -> list:
    return [
        {"src": list(command.src), "dst": list(command.dst),
         "status": command.status,
         "history": [[status, when] for status, when in command.history]}
        for command in log
    ]


def _copyback_log_load(entries) -> list:
    log = []
    for entry in entries:
        command = CopybackCommand(
            src=PhysAddr(*(int(v) for v in entry["src"])),
            dst=PhysAddr(*(int(v) for v in entry["dst"])),
        )
        command.status = entry["status"]
        command.history = [(status, float(when))
                           for status, when in entry["history"]]
        log.append(command)
    return log


def quiescence_report(ssd) -> list:
    """Enumerate everything keeping *ssd* away from a quiescent point.

    Returns a list of human-readable lines, one per blocker: scheduled
    kernel callbacks (with owning-process names), non-idle registered
    resources (semaphore slots and tokens still held, with owner labels
    where the holder provided one), outstanding host requests, dirty
    write-buffer pages, and an active GC episode.  Empty means the
    device is quiescent and :func:`snapshot_ssd` will succeed.

    The fuzzer's leaked-hold oracle calls this after a drained run:
    any surviving entry is a hold that leaked.
    """
    report = []
    sim = ssd.sim
    if sim.peek() is not None:
        report.extend(sim.pending_summary())
    report.extend(sim.outstanding_holds())
    outstanding = ssd.host.outstanding
    if outstanding:
        report.append(f"host interface: {outstanding} request(s) in flight")
    if ssd.gc.active:
        report.append("garbage collector: episode in progress")
    frontend = ssd.frontend
    if frontend is not None and frontend.inflight:
        report.append(
            f"frontend: {frontend.inflight} submission(s) in flight")
    return report


def snapshot_ssd(ssd) -> dict:
    """Capture the complete state of a quiescent *ssd* as a JSON-able dict.

    Raises :class:`~repro.errors.SnapshotError` (or a component-level
    error) when the device is not quiescent: scheduled callbacks,
    outstanding host requests, dirty write-buffer pages, an active GC
    episode, or an attached multi-queue frontend all block the
    snapshot.  The error message enumerates the blocking holds by name
    (see :func:`quiescence_report`).
    """
    if ssd.frontend is not None:
        raise SnapshotError(
            "cannot snapshot a device with a multi-queue frontend attached "
            "(run_tenants sessions are single-use)")
    # The kernel check comes first: it catches every source of in-flight
    # work that owns a scheduled callback (wear-leveler timers included)
    # and raises SimulationError with the pending-callback enumeration.
    sim_state = ssd.sim.snapshot_state()
    # The queue can be empty while slots stay held (a leaked hold with
    # no waiter parks nothing in the queue) -- name the leaks explicitly
    # rather than letting a component state_dict fail opaquely later.
    leaks = quiescence_report(ssd)
    if leaks:
        raise SnapshotError(
            "cannot snapshot: device is not quiescent; outstanding: "
            + "; ".join(leaks))
    datapath = ssd.datapath
    state = {
        "schema": SNAPSHOT_SCHEMA,
        "config": config_to_state(ssd.config),
        "sim": sim_state,
        "prefilled": ssd._prefilled,
        "lpn_space": ssd.lpn_space,
        "measure": {
            "measure_start": ssd._measure_start,
            "io_bytes_snapshot": getattr(ssd, "_io_bytes_snapshot", 0.0),
            "bus_busy_snapshot": dict(ssd._bus_busy_snapshot),
            "gc_snapshot": list(ssd._gc_snapshot),
        },
        "backend": ssd.backend.state_dict(),
        "planes": [{"busy_time": plane.busy_time}
                   for plane in ssd.backend.planes],
        "channels": [c.flash_bus.state_dict() for c in ssd.controllers],
        "controllers": [
            {"pages_read": c.pages_read,
             "pages_programmed": c.pages_programmed,
             "blocks_erased": c.blocks_erased}
            for c in ssd.controllers
        ],
        "bus": ssd.bus.state_dict(),
        "dram": ssd.dram.state_dict(),
        "host": ssd.host.state_dict(),
        "ftl": ssd.ftl.state_dict(),
        "gc": ssd.gc.state_dict(),
        "datapath": {
            "copybacks_completed": datapath.copybacks_completed,
            "read_retries_performed": datapath.read_retries_performed,
        },
        "wear_model": (datapath.wear_model.state_dict()
                       if datapath.wear_model is not None else None),
        "fnoc": ssd.fnoc.state_dict() if ssd.fnoc is not None else None,
        "reliability": (ssd.reliability.state_dict()
                        if ssd.reliability is not None else None),
    }
    if isinstance(datapath, DecoupledDatapath):
        state["ecc"] = [engine.state_dict()
                        for engine in datapath.ecc_engines]
        state["datapath"]["unchecked_copies"] = datapath.unchecked_copies
        state["datapath"]["copyback_log"] = _copyback_log_state(
            datapath.copyback_log)
        if isinstance(datapath.transport, DedicatedBusTransport):
            state["transport_link"] = datapath.transport.link.state_dict()
    else:
        state["ecc"] = [datapath.ecc.state_dict()]
    return state


# -- restore ------------------------------------------------------------------

def restore_ssd(state: dict):
    """Build a fresh device and install a :func:`snapshot_ssd` state.

    The returned :class:`~repro.core.ssd.SimulatedSSD` continues
    byte-identically to a device that never stopped: its flusher pool
    is respawned and parked exactly as the original's was, then the
    simulation clock and the event sequence counter are rewound onto
    the snapshot's values, so every future event carries the same
    ``(time, seq)`` key it would have carried in an uninterrupted run.
    """
    from .ssd import SimulatedSSD

    schema = state.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot schema {schema!r} != supported {SNAPSHOT_SCHEMA}")
    config = config_from_state(state["config"])
    ssd = SimulatedSSD(config)

    ssd.backend.load_state(state["backend"])
    for plane, plane_state in zip(ssd.backend.planes, state["planes"]):
        plane.busy_time = float(plane_state["busy_time"])
    for controller, bus_state in zip(ssd.controllers, state["channels"]):
        controller.flash_bus.load_state(bus_state)
    for controller, c_state in zip(ssd.controllers, state["controllers"]):
        controller.pages_read = int(c_state["pages_read"])
        controller.pages_programmed = int(c_state["pages_programmed"])
        controller.blocks_erased = int(c_state["blocks_erased"])
    ssd.bus.load_state(state["bus"])
    ssd.dram.load_state(state["dram"])
    ssd.host.load_state(state["host"])
    ssd.ftl.load_state(state["ftl"])
    ssd.gc.load_state(state["gc"])

    datapath = ssd.datapath
    dp_state = state["datapath"]
    datapath.copybacks_completed = int(dp_state["copybacks_completed"])
    datapath.read_retries_performed = int(dp_state["read_retries_performed"])
    if state["wear_model"] is not None:
        datapath.wear_model.load_state(state["wear_model"])
    if isinstance(datapath, DecoupledDatapath):
        for engine, e_state in zip(datapath.ecc_engines, state["ecc"]):
            engine.load_state(e_state)
        datapath.unchecked_copies = int(dp_state["unchecked_copies"])
        datapath.copyback_log = _copyback_log_load(dp_state["copyback_log"])
        if isinstance(datapath.transport, DedicatedBusTransport):
            datapath.transport.link.load_state(state["transport_link"])
    else:
        datapath.ecc.load_state(state["ecc"][0])
    if ssd.fnoc is not None:
        ssd.fnoc.load_state(state["fnoc"])
    if ssd.reliability is not None:
        ssd.reliability.load_state(state["reliability"])

    ssd._prefilled = bool(state["prefilled"])
    ssd.lpn_space = int(state["lpn_space"])
    measure = state["measure"]
    ssd._measure_start = float(measure["measure_start"])
    ssd._io_bytes_snapshot = float(measure["io_bytes_snapshot"])
    ssd._bus_busy_snapshot = {key: float(value)
                              for key, value
                              in measure["bus_busy_snapshot"].items()}
    ssd._gc_snapshot = (int(measure["gc_snapshot"][0]),
                        float(measure["gc_snapshot"][1]))

    # Respawn the flusher pool at time zero and let the workers park on
    # the (empty) flush queue -- the bootstrap events drain and leave no
    # queue entries, exactly the state the original device's flushers
    # were in at the quiescent point.  Only *then* rewind the clock and
    # the event sequence counter, so phase-two events get the same
    # (time, seq) keys as in an uninterrupted run.
    ssd.ftl.start()
    ssd.sim.run()
    ssd.sim.restore_state(state["sim"])
    return ssd


# -- power-loss projection ----------------------------------------------------

def durable_state(ssd) -> dict:
    """Project the flash-durable subset of *ssd*'s state -- legal anytime.

    Unlike :func:`snapshot_ssd` this never requires quiescence: it
    models yanking power mid-flight.  Only what a real controller could
    reconstruct from the flash array at mount survives:

    * the media itself (per-block programmed pages + erase counts);
    * the L2P mapping and page-validity sets -- the FTL binds an LPN
      only *after* its program completes, so the mapping table is
      exactly the OOB-journal reconstruction a mount scan yields;
    * block states and write pointers, with volatile ownership erased:
      ``pending`` allocations are lost (those pages were never
      committed, so they are simply wasted below the write pointer) and
      a COLLECTING block falls back to FULL (the GC episode died with
      DRAM);
    * physical-media reliability state: per-page error records, wear
      limits, and the bad-block SRT/RBT tables.

    Deliberately dropped, because it lives in DRAM: the dirty write
    buffer and flush queue (unflushed writes are lost -- correct
    power-cut semantics), host/frontend queues and meters, GC episode
    state, latency recorders, the transient-fault injector, RNG
    streams, and the DES clock itself.
    """
    from ..ftl.blocks import COLLECTING, FULL

    blocks = []
    for index in sorted(ssd.blocks.blocks):
        info = ssd.blocks.blocks[index]
        block_state = FULL if info.state == COLLECTING else info.state
        blocks.append([index, block_state, info.write_ptr,
                       sorted(info.valid)])
    state = {
        "schema": DURABLE_SCHEMA,
        "config": config_to_state(ssd.config),
        "lpn_space": ssd.lpn_space,
        "prefilled": ssd._prefilled,
        "backend": ssd.backend.state_dict(),
        "mapping": ssd.ftl.mapping.state_dict(),
        "blocks": blocks,
        "reliability": None,
    }
    if ssd.reliability is not None:
        state["reliability"] = ssd.reliability.media_state()
    return state


def recover_ssd(state: dict):
    """Mount a fresh device from a :func:`durable_state` projection.

    Models the power-on recovery path: rebuild the device from config,
    install the media and mapping-journal state, and *re-derive* every
    allocator pointer the way a mount scan would -- free pools sorted
    by block index per plane (DRAM pool rotation did not survive),
    at most one ACTIVE block per plane resuming at its write pointer.
    The returned device is quiescent, its clock at zero, its flushers
    parked; it must pass :meth:`~repro.ftl.ftl.Ftl.audit` and accept
    new traffic.
    """
    from ..ftl.blocks import ACTIVE, BAD, FREE, SPARE
    from .ssd import SimulatedSSD

    schema = state.get("schema")
    if schema != DURABLE_SCHEMA:
        raise SnapshotError(
            f"durable-state schema {schema!r} != supported "
            f"{DURABLE_SCHEMA}")
    config = config_from_state(state["config"])
    ssd = SimulatedSSD(config)
    ssd.backend.load_state(state["backend"])

    blocks_per_plane = config.geometry.blocks_per_plane
    planes_total = config.geometry.planes_total
    free_pools: List[List[int]] = [[] for _ in range(planes_total)]
    # A plane may surface up to two partially-written blocks at mount:
    # the host-stream and the GC-stream active block.  Which was which
    # is not durable (and does not matter); assign them in block-index
    # scan order so recovery stays deterministic.
    active: List[Optional[int]] = [None] * planes_total
    active_gc: List[Optional[int]] = [None] * planes_total
    counts = {FREE: 0, BAD: 0, SPARE: 0}
    for index, block_state, _write_ptr, _valid in sorted(
            state["blocks"], key=lambda entry: int(entry[0])):
        index = int(index)
        plane = index // blocks_per_plane
        if not 0 <= plane < planes_total:
            continue  # load_state rejects the block by name
        if block_state == FREE:
            free_pools[plane].append(index)
        elif block_state == ACTIVE:
            if active[plane] is None:
                active[plane] = index
            elif active_gc[plane] is None:
                active_gc[plane] = index
            else:
                raise SnapshotError(
                    f"durable state names three ACTIVE blocks in plane "
                    f"{plane}")
        if block_state in counts:
            counts[block_state] += 1
    # The allocator checks the derived layout and rebuilds its caches.
    ssd.blocks.load_state({
        "blocks": state["blocks"],
        "free": free_pools,
        "active": active,
        "active_gc": active_gc,
        "cursor": 0,
        "free_blocks": counts[FREE],
        "bad_blocks": counts[BAD],
        "spare_blocks": counts[SPARE],
    })

    ssd.ftl.mapping.load_state(state["mapping"])
    if state["reliability"] is not None:
        if ssd.reliability is None:
            raise SnapshotError(
                "durable state carries reliability records but the "
                "config builds no reliability engine")
        ssd.reliability.load_media_state(state["reliability"])

    ssd._prefilled = bool(state["prefilled"])
    ssd.lpn_space = int(state["lpn_space"])
    # Park the flusher pool on the (empty) flush queue; the bootstrap
    # events drain, leaving a quiescent device at time zero.
    ssd.ftl.start()
    ssd.sim.run()
    return ssd


# -- persistence --------------------------------------------------------------

def save_snapshot(state: dict, path: Union[str, Path]) -> Path:
    """Write a snapshot dict as (optionally gzipped) canonical JSON.

    A ``.gz`` suffix selects gzip framing; either form round-trips via
    :func:`load_snapshot`.  The bytes go to a temporary file first and
    are renamed into place, so a killed writer never leaves a torn
    snapshot at *path* and concurrent writers of one path do not
    interleave.
    """
    path = Path(path)
    payload = json.dumps(state, sort_keys=True,
                         separators=(",", ":")).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        if path.suffix == ".gz":
            # mtime=0 and an empty embedded name keep the archive
            # content-addressable: identical snapshots produce identical
            # bytes regardless of wall time or target filename.
            with open(tmp, "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                                   mtime=0) as fh:
                    fh.write(payload)
        else:
            tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_snapshot(path: Union[str, Path]) -> dict:
    """Read a snapshot written by :func:`save_snapshot`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return json.loads(fh.read())
    return json.loads(path.read_bytes())


# -- fast-forward aging -------------------------------------------------------

def fastforward_wear(ssd, pe_fraction: float,
                     limit_mean: Optional[float] = None) -> int:
    """Analytically age *ssd* to *pe_fraction* of its P/E budget.

    Every block's erase count jumps to ``pe_fraction`` of its limit --
    the per-block Gaussian limit when the reliability stack (or read-
    retry wear model) is attached, otherwise a uniform *limit_mean*
    (default: the paper's P/E mean).  Deterministic under the device
    seed.  Returns the total erase cycles applied.  Intended to run on
    a freshly built (or prefilled) device before any traffic.
    """
    from ..flash.wear import PAPER_PE_MEAN

    if not 0.0 <= pe_fraction < 1.0:
        raise SnapshotError(f"pe_fraction out of [0,1): {pe_fraction}")
    wear = None
    if ssd.reliability is not None:
        wear = ssd.reliability.rber_model.wear
    elif ssd.datapath.wear_model is not None:
        wear = ssd.datapath.wear_model
    mean = limit_mean if limit_mean is not None else PAPER_PE_MEAN
    geometry = ssd.config.geometry
    total_blocks = geometry.planes_total * geometry.blocks_per_plane
    applied = 0
    for index in range(total_blocks):
        limit = wear.limit_for(index) if wear is not None else mean
        count = int(pe_fraction * limit)
        if count <= 0:
            continue
        ssd.backend._block_state_at(index).erase_count = count
        applied += count
    return applied
