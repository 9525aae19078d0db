"""Tests for extension features: Mesh2D, TRIM, wear leveling, ablations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArchPreset, build_ssd, sim_geometry
from repro.errors import ConfigError
from repro.ftl import TRIM, IoRequest
from repro.ftl.wear_leveling import StaticWearLeveler
from repro.noc import FNoC, Mesh2D, Packet
from repro.sim import Simulator
from repro.workloads import SyntheticWorkload


# ---------------------------------------------------------------- Mesh2D


def test_mesh2d_requires_square():
    with pytest.raises(ConfigError):
        Mesh2D(6)
    assert Mesh2D(9).side == 3


def test_mesh2d_channel_count():
    mesh = Mesh2D(9)  # 3x3: 12 bidirectional links = 24 channels
    assert len(mesh.channels()) == 24


def test_mesh2d_xy_routing():
    mesh = Mesh2D(16)  # 4x4
    # node 0 = (0,0); node 15 = (3,3): X first then Y.
    path = mesh.path(0, 15)
    assert path == [0, 1, 2, 3, 7, 11, 15]
    assert mesh.path(5, 5) == [5]


def test_mesh2d_bisection_rule():
    mesh = Mesh2D(16)
    # 4 rows x 2 directions cross the vertical cut.
    assert mesh.channel_bandwidth_for_bisection(8000.0) == pytest.approx(
        1000.0)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 15), st.integers(0, 15))
def test_mesh2d_paths_minimal_and_valid(src, dst):
    mesh = Mesh2D(16)
    path = mesh.path(src, dst)
    assert path[0] == src and path[-1] == dst
    manhattan = (abs(src // 4 - dst // 4) + abs(src % 4 - dst % 4))
    assert len(path) - 1 == manhattan
    for cur, nxt in zip(path, path[1:]):
        assert (cur, nxt) in set(mesh.channels())


@settings(deadline=None, max_examples=15)
@given(st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(64, 4096)),
    min_size=1, max_size=20,
))
def test_mesh2d_delivers_all_packets(traffic):
    sim = Simulator()
    noc = FNoC(sim, Mesh2D(9), 500.0, buffer_flits=2, ni_latency_us=0.0)
    procs = [
        sim.process(noc.send(Packet(src=s, dst=d, payload_bytes=n)))
        for s, d, n in traffic
    ]
    sim.run()
    assert all(p.triggered for p in procs)


def test_mesh2d_usable_in_full_ssd():
    geometry = sim_geometry(channels=4, ways=2, planes=2,
                            blocks_per_plane=8)
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=geometry,
                    fnoc_topology="mesh2d")
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    result = ssd.run(workload, duration_us=10_000)
    assert result.requests_completed > 0


# ---------------------------------------------------------------- TRIM


def test_trim_unmaps_and_invalidates():
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=8, pages_per_block=8)
    ssd = build_ssd(ArchPreset.BASELINE, geometry=geometry, queue_depth=4)
    ssd.prefill()
    ssd.ftl.start()
    lpn = 0
    assert ssd.mapping.lookup(lpn) is not None
    proc = ssd.ftl.submit(IoRequest(op=TRIM, lpn=lpn, n_pages=4))
    ssd.sim.run()
    assert proc.triggered
    for offset in range(4):
        assert ssd.mapping.lookup(lpn + offset) is None
    assert ssd.ftl.trims_processed == 1
    ssd.mapping.check_consistency()


def test_trim_moves_no_data_bytes():
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=8, pages_per_block=8)
    ssd = build_ssd(ArchPreset.BASELINE, geometry=geometry, queue_depth=4)
    ssd.prefill()
    ssd.ftl.start()
    ssd.ftl.submit(IoRequest(op=TRIM, lpn=0, n_pages=2))
    ssd.sim.run()
    assert ssd.ftl.completed_bytes.total() == 0.0
    assert ssd.ftl.io_latency.count == 1


def test_trimmed_read_served_as_unmapped():
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=8, pages_per_block=8)
    ssd = build_ssd(ArchPreset.BASELINE, geometry=geometry, queue_depth=4)
    ssd.prefill()
    ssd.ftl.start()
    ssd.ftl.submit(IoRequest(op=TRIM, lpn=0, n_pages=1))
    ssd.sim.run()
    flash_reads_before = sum(c.pages_read for c in ssd.controllers)
    ssd.ftl.submit(IoRequest(op="read", lpn=0, n_pages=1))
    ssd.sim.run()
    # Trimmed LPN reads do not touch flash.
    assert sum(c.pages_read for c in ssd.controllers) == flash_reads_before


def test_request_validation_accepts_trim():
    request = IoRequest(op=TRIM, lpn=5, n_pages=2)
    assert request.op == TRIM
    with pytest.raises(ConfigError):
        IoRequest(op="discard", lpn=0, n_pages=1)


# ---------------------------------------------------------------- wear leveling


def make_wl_ssd(**overrides):
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=10, pages_per_block=8)
    overrides.setdefault("geometry", geometry)
    overrides.setdefault("queue_depth", 8)
    overrides.setdefault("wear_leveling", True)
    overrides.setdefault("wear_level_interval_us", 2_000.0)
    overrides.setdefault("wear_level_threshold", 2)
    return build_ssd(ArchPreset.BASELINE, **overrides)


def test_wear_leveler_migrates_cold_blocks():
    ssd = make_wl_ssd()
    workload = SyntheticWorkload(pattern="rand_write", io_size=4096,
                                 working_set_fraction=0.3)  # hot subset
    ssd.run(workload, duration_us=60_000)
    leveler = ssd.wear_leveler
    assert leveler is not None
    assert leveler.rounds > 0
    assert leveler.migrations > 0
    ssd.mapping.check_consistency()


def test_wear_leveler_relocates_through_gc_meters():
    """A leveling round moves pages and erases blocks through the
    garbage collector's relocator, so GcStats counts them although no
    GC episode ran."""
    ssd = make_wl_ssd()
    ssd.prefill()
    for info in ssd.blocks.blocks.values():
        if info.state == "free":
            ssd.backend.block_state(info.addr).erase_count = 5
    ssd.wear_leveler.start()
    ssd.sim.run(until=4_500.0)
    leveler, stats = ssd.wear_leveler, ssd.gc.stats
    assert leveler.rounds >= 1 and leveler.migrations > 0
    assert stats.episodes == 0
    assert stats.blocks_erased == leveler.migrations
    assert stats.pages_moved > 0
    assert ssd.ftl.audit() == []


def test_wear_leveler_idle_when_balanced():
    ssd = make_wl_ssd(wear_level_threshold=10_000)
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    ssd.run(workload, duration_us=20_000)
    assert ssd.wear_leveler.migrations == 0


def test_wear_leveler_disabled_by_default():
    ssd = build_ssd(ArchPreset.BASELINE,
                    geometry=sim_geometry(channels=2, ways=2, planes=2,
                                          blocks_per_plane=8))
    assert ssd.wear_leveler is None


def test_wear_leveler_config_validation():
    sim = Simulator()
    with pytest.raises(ConfigError):
        StaticWearLeveler(sim, None, None, None, interval_us=0.0)
    with pytest.raises(ConfigError):
        StaticWearLeveler(sim, None, None, None, threshold=0)


# ---------------------------------------------------------------- copyback ECC


def test_legacy_copyback_counts_unchecked_copies():
    geometry = sim_geometry(channels=4, ways=2, planes=2,
                            blocks_per_plane=10)
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=geometry,
                    copyback_ecc=False)
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    result = ssd.run(workload, duration_us=30_000)
    assert result.gc.pages_moved > 0
    assert ssd.datapath.unchecked_copies > 0


def test_checked_copyback_never_unchecked():
    geometry = sim_geometry(channels=4, ways=2, planes=2,
                            blocks_per_plane=10)
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=geometry)
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    ssd.run(workload, duration_us=30_000)
    assert ssd.datapath.unchecked_copies == 0
