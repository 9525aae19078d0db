"""End-to-end integration tests over the assembled SSD."""

import pytest

from repro.core import (
    ArchPreset,
    CopybackStatus,
    SSDConfig,
    build_ssd,
    sim_geometry,
)
from repro.errors import ConfigError
from repro.workloads import SyntheticWorkload

TINY = sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=10,
                    pages_per_block=16)


def tiny_ssd(arch, **overrides):
    overrides.setdefault("geometry", TINY)
    overrides.setdefault("queue_depth", 16)
    return build_ssd(arch, **overrides)


def run_tiny(arch, pattern="seq_write", io_size=4096, duration=20_000,
             **overrides):
    ssd = tiny_ssd(arch, **overrides)
    workload = SyntheticWorkload(pattern=pattern, io_size=io_size)
    return ssd, ssd.run(workload, duration_us=duration)


# ---------------------------------------------------------------- assembly


def test_build_from_preset_string_and_enum():
    assert build_ssd("dssd_f", geometry=TINY).config.arch is ArchPreset.DSSD_F
    assert build_ssd(ArchPreset.BW, geometry=TINY).config.arch is ArchPreset.BW


def test_build_from_config_object():
    config = SSDConfig(arch=ArchPreset.DSSD, geometry=TINY)
    ssd = build_ssd(config)
    assert ssd.config is config
    with pytest.raises(ConfigError):
        build_ssd(config, queue_depth=8)


def test_fnoc_only_built_for_dssd_f():
    assert tiny_ssd("dssd_f").fnoc is not None
    assert tiny_ssd("dssd").fnoc is None
    assert tiny_ssd("baseline").fnoc is None


def test_bandwidth_rules_match_table2():
    base = SSDConfig(arch=ArchPreset.BASELINE)
    assert base.system_bus_bw == 8000.0
    bw = base.with_arch(ArchPreset.BW)
    assert bw.system_bus_bw == pytest.approx(10000.0)
    dssd = base.with_arch(ArchPreset.DSSD)
    assert dssd.system_bus_bw == pytest.approx(10000.0)
    dssd_b = base.with_arch(ArchPreset.DSSD_B)
    assert dssd_b.system_bus_bw == 8000.0
    assert dssd_b.dedicated_bus_bw == pytest.approx(2000.0)
    dssd_f = base.with_arch(ArchPreset.DSSD_F)
    assert dssd_f.system_bus_bw == 8000.0
    assert dssd_f.effective_fnoc_channel_bw == pytest.approx(2000.0)


def test_run_requires_budget():
    ssd = tiny_ssd("baseline")
    workload = SyntheticWorkload()
    with pytest.raises(ConfigError):
        ssd.run(workload)


def test_run_refuses_a_deadline_behind_the_clock():
    """``duration_us`` is absolute: a second run may not end before the
    first one did, and the refusal schedules nothing."""
    ssd = tiny_ssd("baseline")
    ssd.run(SyntheticWorkload(), max_requests=20)
    now, seq = ssd.sim.now, ssd.sim._seq
    assert now > 10.0 and ssd.sim.peek() is None
    with pytest.raises(ConfigError, match="before the device clock"):
        ssd.run(SyntheticWorkload(), duration_us=now - 10.0)
    assert (ssd.sim.now, ssd.sim._seq, ssd.sim.peek()) == (now, seq, None)


# ---------------------------------------------------------------- behaviour


def test_write_workload_completes_requests():
    _ssd, result = run_tiny("baseline")
    assert result.requests_completed > 0
    assert result.io_bandwidth > 0
    assert result.io_latency.count == result.requests_completed


def test_read_workload_hits_flash():
    ssd, result = run_tiny("baseline", pattern="rand_read")
    assert result.requests_completed > 0
    assert sum(c.pages_read for c in ssd.controllers) > 0


def test_dram_hit_reads_skip_flash():
    ssd = tiny_ssd("baseline")
    workload = SyntheticWorkload(pattern="rand_read", dram_hit_fraction=1.0)
    result = ssd.run(workload, duration_us=10_000, trigger_gc=False)
    assert result.requests_completed > 0
    assert sum(c.pages_read for c in ssd.controllers) == 0


def test_gc_runs_under_write_pressure():
    _ssd, result = run_tiny("baseline", duration=40_000)
    assert result.gc.blocks_erased > 0
    assert result.gc.pages_moved > 0


def test_decoupled_gc_avoids_dram_and_bus():
    """Paper's core claim: decoupled copyback never touches the DRAM and
    (for dSSD_f) never touches the system bus."""
    _ssd, result = run_tiny("dssd_f", duration=40_000)
    assert result.copybacks > 0
    gc_breakdown = result.gc_breakdown.as_dict()
    assert gc_breakdown["dram"] == 0.0
    assert result.bus_gc_utilization == 0.0


def test_baseline_gc_uses_front_end():
    _ssd, result = run_tiny("baseline", duration=40_000)
    gc_breakdown = result.gc_breakdown.as_dict()
    assert gc_breakdown["dram"] > 0.0
    assert gc_breakdown["system_bus"] > 0.0
    assert result.bus_gc_utilization > 0.0


def test_copyback_commands_progress_through_stages():
    ssd, result = run_tiny("dssd_f", duration=40_000)
    log = ssd.datapath.copyback_log
    assert log
    finished = [c for c in log if c.status == CopybackStatus.WRITTEN]
    assert finished
    remote = [c for c in finished if not c.is_local]
    local = [c for c in finished if c.is_local]
    assert remote, "cross-channel copybacks expected with global striping"
    for command in remote[:50]:
        stages = [s for s, _t in command.history]
        assert stages == ["R", "RE", "P", "T", "W"]
    for command in local[:50]:
        stages = [s for s, _t in command.history]
        assert stages == ["R", "RE", "W"]


def test_fnoc_carries_copyback_traffic():
    ssd, result = run_tiny("dssd_f", duration=40_000)
    assert result.fnoc_packets > 0
    assert ssd.fnoc.bytes_sent > 0


def test_mapping_consistent_after_heavy_gc():
    ssd, result = run_tiny("baseline", pattern="rand_write", duration=40_000)
    ssd.mapping.check_consistency()
    # Blocks' valid counts match the number of mapped LPNs whose pages
    # are not dirty-in-buffer.
    total_valid = sum(info.valid_count for info in ssd.blocks.blocks.values())
    assert total_valid == len(ssd.mapping)


def test_warmup_resets_measurements():
    ssd = tiny_ssd("baseline")
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    result = ssd.run(workload, duration_us=20_000, warmup_us=10_000)
    assert result.duration_us == pytest.approx(10_000, rel=0.01)
    assert result.requests_completed > 0


def test_second_run_warmup_is_a_delay_from_the_clock():
    """``warmup_us`` counts from the current clock, ``duration_us`` is
    absolute: the guard compares the warmup's end with the deadline."""
    ssd = build_ssd("baseline")
    ssd.run(SyntheticWorkload(), max_requests=200)
    now, seq = ssd.sim.now, ssd.sim._seq
    assert now > 100.0
    with pytest.raises(ConfigError, match="warmup_us"):
        ssd.run(SyntheticWorkload(), duration_us=now + 400,
                warmup_us=now + 100)
    assert (ssd.sim.now, ssd.sim._seq, ssd.sim.peek()) == (now, seq, None)
    result = ssd.run(SyntheticWorkload(), duration_us=now + 400,
                     warmup_us=100)
    assert result.duration_us == pytest.approx(300.0)
    assert result.requests_completed > 0


def test_warmup_without_duration_is_refused_before_scheduling():
    """A ``max_requests``-only run drains the queue, so a warmup timer
    would idle the clock past the last request and then zero every
    meter; the run refuses it before anything is scheduled."""
    ssd = build_ssd("baseline")
    with pytest.raises(ConfigError, match="warmup_us"):
        ssd.run(SyntheticWorkload(), max_requests=200, warmup_us=1e6)
    assert (ssd.sim.now, ssd.sim._seq, ssd.sim.peek()) == (0.0, 0, None)
    result = ssd.run(SyntheticWorkload(), max_requests=200)
    assert result.requests_completed == 200
    assert ssd.sim.now < 1e6


def test_max_requests_stop_condition():
    ssd = tiny_ssd("baseline")
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    result = ssd.run(workload, max_requests=50)
    assert result.requests_completed <= 50
    assert result.requests_completed > 0


def test_write_through_policy():
    ssd, result = run_tiny("baseline", write_policy="writethrough",
                           duration=20_000)
    assert result.requests_completed > 0
    # Write-through never stages pages in the buffer.
    assert ssd.ftl.dirty_pages == 0


def test_summary_keys():
    _ssd, result = run_tiny("baseline", duration=10_000)
    summary = result.summary()
    for key in ("io_bandwidth_MBps", "io_p99_us", "gc_pages_moved"):
        assert key in summary


def test_run_result_extras_present():
    _ssd, result = run_tiny("dssd_f", duration=20_000)
    for key in ("gc_pages_in_window", "gc_move_latency_us",
                "free_fraction_end"):
        assert key in result.extras
