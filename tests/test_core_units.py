"""Unit tests for core pieces: copyback commands, transports, datapaths."""

import pytest

from repro.controller import Breakdown, Dram, EccEngine, FlashController
from repro.core import (
    ArchPreset,
    BaselineDatapath,
    CopybackCommand,
    CopybackStatus,
    DecoupledDatapath,
    DedicatedBusTransport,
    FnocTransport,
    SharedBusTransport,
    SSDConfig,
    paper_geometry,
    sim_geometry,
    superblock_geometry,
)
from repro.errors import ConfigError
from repro.flash import FlashBackend, FlashGeometry, PhysAddr, ULL_TIMING
from repro.noc import FNoC, Mesh1D
from repro.sim import Link, Simulator

GEOM = FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                     blocks_per_plane=4, pages_per_block=4)


def make_world(sim, decoupled=False, transport_kind="shared"):
    backend = FlashBackend(sim, GEOM, ULL_TIMING)
    controllers = [FlashController(sim, c, backend, 1000.0)
                   for c in range(GEOM.channels)]
    bus = Link(sim, 8000.0, name="system_bus")
    dram = Dram(sim, 8000.0)
    if not decoupled:
        ecc = EccEngine(sim, lanes=GEOM.channels)
        return BaselineDatapath(sim, bus, dram, ecc, controllers)
    ecc_engines = [EccEngine(sim, lanes=1, name=f"e{c}")
                   for c in range(GEOM.channels)]
    if transport_kind == "shared":
        transport = SharedBusTransport(sim, bus)
    elif transport_kind == "dedicated":
        transport = DedicatedBusTransport(sim, 2000.0)
    else:
        transport = FnocTransport(sim, FNoC(sim, Mesh1D(GEOM.channels),
                                            2000.0, ni_latency_us=0.0))
    return DecoupledDatapath(sim, bus, dram, ecc_engines, controllers,
                             transport)


def prefill_source(datapath, addr):
    datapath.backend.mark_programmed([GEOM.block_index(addr)])


def drive(sim, gen):
    proc = sim.process(gen)
    sim.run()
    return proc.value


# ---------------------------------------------------------------- copyback


def test_copyback_status_order_enforced():
    cmd = CopybackCommand(src=PhysAddr(0, 0, 0, 0, 0, 0),
                          dst=PhysAddr(1, 0, 0, 0, 0, 0))
    cmd.advance(CopybackStatus.READ, 1.0)
    with pytest.raises(ValueError):
        cmd.advance(CopybackStatus.QUEUED, 2.0)
    with pytest.raises(ValueError):
        cmd.advance(CopybackStatus.READ, 2.0)
    cmd.advance(CopybackStatus.READ_ECC, 2.0)
    assert cmd.history == [("R", 1.0), ("RE", 2.0)]


def test_copyback_locality():
    local = CopybackCommand(src=PhysAddr(0, 0, 0, 0, 0, 0),
                            dst=PhysAddr(0, 0, 0, 1, 2, 0))
    remote = CopybackCommand(src=PhysAddr(0, 0, 0, 0, 0, 0),
                             dst=PhysAddr(1, 0, 0, 0, 0, 0))
    assert local.is_local
    assert not remote.is_local


# ---------------------------------------------------------------- transports


def test_shared_bus_transport_accounts_system_bus():
    sim = Simulator()
    bus = Link(sim, 8000.0, name="system_bus")
    transport = SharedBusTransport(sim, bus)
    bd = Breakdown()
    drive(sim, transport.move(0, 1, 4096, bd))
    assert bd.get("system_bus") == pytest.approx(4096 / 8000.0)
    assert bus.busy_time["gc"] == 4096 / bus.bandwidth


def test_dedicated_bus_transport_accounts_fnoc():
    sim = Simulator()
    transport = DedicatedBusTransport(sim, 2000.0)
    bd = Breakdown()
    drive(sim, transport.move(0, 1, 4096, bd))
    assert bd.get("fnoc") == pytest.approx(4096 / 2000.0)
    assert bd.get("system_bus") == 0.0


def test_fnoc_transport_routes_packets():
    sim = Simulator()
    noc = FNoC(sim, Mesh1D(4), 1000.0, ni_latency_us=0.0)
    transport = FnocTransport(sim, noc)
    bd = Breakdown()
    drive(sim, transport.move(0, 3, 4096, bd))
    assert bd.get("fnoc") > 0.0
    assert noc.packets_sent == 1


# ---------------------------------------------------------------- datapaths


def test_baseline_gc_move_path_components():
    sim = Simulator()
    datapath = make_world(sim, decoupled=False)
    src = PhysAddr(0, 0, 0, 0, 0, 0)
    dst = PhysAddr(1, 0, 0, 0, 0, 0)
    prefill_source(datapath, src)
    bd = drive(sim, datapath.gc_move(src, dst))
    for component in ("flash_chip", "flash_bus", "system_bus", "dram",
                      "ecc"):
        assert bd.get(component) > 0.0, component
    assert bd.get("fnoc") == 0.0


def test_decoupled_gc_move_remote_uses_transport_not_dram():
    sim = Simulator()
    datapath = make_world(sim, decoupled=True, transport_kind="fnoc")
    src = PhysAddr(0, 0, 0, 0, 0, 0)
    dst = PhysAddr(1, 0, 0, 0, 0, 0)
    prefill_source(datapath, src)
    bd = drive(sim, datapath.gc_move(src, dst))
    assert bd.get("dram") == 0.0
    assert bd.get("system_bus") == 0.0
    assert bd.get("fnoc") > 0.0
    assert datapath.copybacks_completed == 1
    command = datapath.copyback_log[0]
    assert command.status == CopybackStatus.WRITTEN
    assert [s for s, _t in command.history] == ["R", "RE", "P", "T", "W"]


def test_decoupled_gc_move_local_skips_interconnect():
    sim = Simulator()
    datapath = make_world(sim, decoupled=True, transport_kind="dedicated")
    src = PhysAddr(0, 0, 0, 0, 0, 0)
    dst = PhysAddr(0, 0, 0, 1, 0, 0)
    prefill_source(datapath, src)
    bd = drive(sim, datapath.gc_move(src, dst))
    assert bd.get("fnoc") == 0.0
    assert bd.get("system_bus") == 0.0
    command = datapath.copyback_log[0]
    assert [s for s, _t in command.history] == ["R", "RE", "W"]


def test_decoupled_dbuf_credits_conserved():
    sim = Simulator()
    datapath = make_world(sim, decoupled=True, transport_kind="shared")
    src_block = PhysAddr(0, 0, 0, 0, 0, 0)
    prefill_source(datapath, src_block)
    procs = []
    for page in range(4):
        src = src_block._replace(page=page)
        dst = PhysAddr(1, 0, 0, 0, 0, page)
        procs.append(sim.process(datapath.gc_move(src, dst)))
    sim.run()
    assert all(p.triggered for p in procs)
    for pool in datapath.dbufs:
        assert pool.in_use == 0


def test_baseline_staging_credits_conserved():
    sim = Simulator()
    datapath = make_world(sim, decoupled=False)
    src_block = PhysAddr(0, 0, 0, 0, 0, 0)
    prefill_source(datapath, src_block)
    procs = []
    for page in range(4):
        src = src_block._replace(page=page)
        dst = PhysAddr(1, 0, 0, 0, 0, page)
        procs.append(sim.process(datapath.gc_move(src, dst)))
    sim.run()
    assert all(p.triggered for p in procs)
    for pool in datapath.gc_staging:
        assert pool.in_use == 0


def test_remapper_applied_to_every_access():
    sim = Simulator()
    mapped = {}

    def remapper(addr):
        mapped["called"] = mapped.get("called", 0) + 1
        return addr

    backend = FlashBackend(sim, GEOM, ULL_TIMING)
    controllers = [FlashController(sim, c, backend, 1000.0)
                   for c in range(GEOM.channels)]
    datapath = BaselineDatapath(sim, Link(sim, 8000.0),
                                Dram(sim, 8000.0),
                                EccEngine(sim, lanes=2), controllers,
                                remapper=remapper)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    backend.mark_programmed([GEOM.block_index(addr)])
    drive(sim, datapath.io_read_flash(addr, Breakdown()))
    assert mapped["called"] == 1


def test_decoupled_requires_matching_ecc_engines():
    sim = Simulator()
    backend = FlashBackend(sim, GEOM, ULL_TIMING)
    controllers = [FlashController(sim, c, backend, 1000.0)
                   for c in range(GEOM.channels)]
    with pytest.raises(ConfigError):
        bus = Link(sim, 8000.0)
        DecoupledDatapath(sim, bus, Dram(sim, 8000.0), [EccEngine(sim)],
                          controllers, SharedBusTransport(sim, bus))


# ---------------------------------------------------------------- configs


def test_geometry_presets_match_paper():
    paper = paper_geometry()
    assert (paper.channels, paper.ways, paper.planes) == (8, 8, 8)
    assert paper.blocks_per_plane == 1384
    assert paper.pages_per_block == 384
    sb = superblock_geometry()
    assert (sb.channels, sb.ways, sb.dies, sb.planes) == (8, 4, 2, 2)
    assert sb.page_size == 16384


def test_config_validation():
    with pytest.raises(ConfigError):
        SSDConfig(onchip_bw_factor=0.5)
    with pytest.raises(ConfigError):
        SSDConfig(fnoc_topology="torus")


def test_config_describe_mentions_arch():
    config = SSDConfig(arch=ArchPreset.DSSD_F)
    assert "dssd_f" in config.describe()


def test_effective_flush_workers_defaults_to_planes():
    config = SSDConfig(geometry=sim_geometry(ways=2, planes=2))
    assert config.effective_flush_workers == config.geometry.planes_total
    assert SSDConfig(flush_workers=7).effective_flush_workers == 7
