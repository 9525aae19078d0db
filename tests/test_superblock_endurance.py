"""Tests for the endurance simulator, WAS model, and SRT remapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.flash import FlashGeometry, PhysAddr
from repro.superblock import (
    EnduranceConfig,
    EnduranceSimulator,
    SrtRemapper,
    run_endurance,
    simulate_was,
)

FAST = dict(n_superblocks=128, channels=4, seed=7)


def test_curve_is_monotone():
    result = run_endurance(policy="baseline", **FAST)
    bytes_seq = [b for b, _bad in result.curve]
    bad_seq = [bad for _b, bad in result.curve]
    assert bytes_seq == sorted(bytes_seq)
    assert bad_seq == sorted(bad_seq)
    assert bad_seq[-1] >= int(0.9 * 128)


def test_recycled_same_first_bad_as_baseline():
    """Paper Sec 5.3: RECYCLED cannot delay the *first* bad superblock."""
    base = run_endurance(policy="baseline", **FAST)
    recycled = run_endurance(policy="recycled", **FAST)
    assert recycled.first_bad_bytes == pytest.approx(base.first_bad_bytes)


def test_recycled_extends_low_badcount_endurance():
    """Paper Fig 14(a): RECYCLED writes more data before N bad blocks."""
    base = run_endurance(policy="baseline", **FAST)
    recycled = run_endurance(policy="recycled", **FAST)
    n_bad = 13  # ~10% of 128
    assert recycled.bytes_until_bad(n_bad) > base.bytes_until_bad(n_bad)
    assert recycled.remap_events > 0


def test_reserv_delays_first_bad():
    """Paper Fig 14(a): RESERV significantly delays the first bad block."""
    base = run_endurance(policy="baseline", **FAST)
    reserv = run_endurance(policy="reserv", **FAST)
    assert reserv.first_bad_bytes > 1.15 * base.first_bad_bytes


def test_benefit_grows_with_variation():
    """Paper Fig 14(b): more block-wear variation -> more RECYCLED gain."""
    def gain(sigma):
        base = run_endurance(policy="baseline", pe_sigma=sigma, **FAST)
        rec = run_endurance(policy="recycled", pe_sigma=sigma, **FAST)
        n_bad = 13
        return rec.bytes_until_bad(n_bad) / base.bytes_until_bad(n_bad)

    assert gain(1200.0) > gain(300.0)


def test_srt_capacity_limits_endurance():
    """Paper Fig 16(a): more SRT entries -> more endurance, saturating."""
    small = run_endurance(policy="recycled", srt_capacity=4, **FAST)
    large = run_endurance(policy="recycled", srt_capacity=None, **FAST)
    n_bad = 64
    assert large.bytes_until_bad(n_bad) >= small.bytes_until_bad(n_bad)
    assert small.srt_rejections > 0


def test_srt_occupancy_saturates():
    """Paper Fig 16(b): active entries plateau once static superblocks
    are exhausted: retirements free entries while remaps keep adding
    them, so a channel ends with fewer live entries than it inserted."""
    result = run_endurance(policy="recycled", srt_capacity=None, **FAST)
    log = result.srt_occupancy[0]
    assert log, "expected SRT activity"
    peak = max(active for channel_log in result.srt_occupancy.values()
               for _event, active in channel_log)
    assert peak == result.max_active_srt_entries
    inserts, active = log[-1]
    assert active < inserts
    assert peak < 128 * 4  # bounded well below block count


def test_zero_sigma_kills_everything_at_once():
    result = run_endurance(policy="baseline", pe_sigma=0.0, **FAST)
    # All superblocks die at the same wear: a single curve step.
    firsts = {b for b, _bad in result.curve}
    assert len(firsts) == 1


def test_reserved_blocks_reduce_visible_capacity():
    config = EnduranceConfig(policy="reserv", n_superblocks=100,
                             reserve_fraction=0.10)
    sim = EnduranceSimulator(config)
    assert sim.visible == 90
    assert sim.reserved == 10
    assert all(len(rbt) == 10 for rbt in sim.manager.rbt)


def test_endurance_config_validation():
    with pytest.raises(ConfigError):
        EnduranceConfig(policy="recycle-bin")
    with pytest.raises(ConfigError):
        EnduranceConfig(n_superblocks=1)
    with pytest.raises(ConfigError):
        EnduranceConfig(reserve_fraction=0.6)


@settings(deadline=None, max_examples=10)
@given(st.integers(16, 64), st.integers(2, 6),
       st.sampled_from(["baseline", "recycled", "reserv"]))
def test_endurance_always_terminates(n_superblocks, channels, policy):
    result = run_endurance(policy=policy, n_superblocks=n_superblocks,
                           channels=channels, seed=11)
    assert result.total_bytes > 0
    assert result.curve


# ---------------------------------------------------------------- WAS


def test_was_at_least_matches_recycled_endurance():
    """Paper Fig 14(b): software WAS >= hardware recycling (it regroups
    freely with full endurance knowledge)."""
    recycled = run_endurance(policy="recycled", srt_capacity=64, **FAST)
    was = simulate_was(n_superblocks=128, channels=4, seed=7)
    n_bad = 64
    assert was.bytes_until_bad(n_bad) >= recycled.bytes_until_bad(n_bad)


def test_was_curve_monotone():
    was = simulate_was(n_superblocks=64, channels=4, seed=3)
    bads = [bad for _b, bad in was.curve]
    assert bads == sorted(bads)
    assert was.first_bad_bytes > 0


def test_was_config_validation():
    with pytest.raises(ConfigError):
        simulate_was(n_superblocks=1)


# ---------------------------------------------------------------- SrtRemapper


GEOM = FlashGeometry(channels=4, ways=2, dies=1, planes=2,
                     blocks_per_plane=8, pages_per_block=4)


def test_remapper_is_bijective_within_channel():
    remapper = SrtRemapper(GEOM, n_entries=8, seed=5)
    seen = {}
    for channel in range(GEOM.channels):
        for way in range(GEOM.ways):
            for die in range(GEOM.dies):
                for plane in range(GEOM.planes):
                    for block in range(GEOM.blocks_per_plane):
                        addr = PhysAddr(channel, way, die, plane, block, 0)
                        out = remapper(addr)
                        assert out.channel == channel  # within-channel
                        key = (channel, out.way, out.die, out.plane,
                               out.block)
                        assert key not in seen, "remap collision"
                        seen[key] = addr


def test_remapper_swaps_are_symmetric():
    remapper = SrtRemapper(GEOM, n_entries=4, seed=9)
    for (channel, pos), target in list(remapper._map.items()):
        assert remapper._map[(channel, target)] == pos


def test_remapper_zero_entries_is_identity():
    remapper = SrtRemapper(GEOM, n_entries=0)
    addr = PhysAddr(1, 0, 0, 1, 3, 2)
    assert remapper(addr) == addr
    assert remapper.active_entries == 0


def test_remapper_preserves_page():
    remapper = SrtRemapper(GEOM, n_entries=16, seed=2)
    addr = PhysAddr(0, 1, 0, 1, 5, 3)
    assert remapper(addr).page == 3


def test_remapper_counts_hits():
    remapper = SrtRemapper(GEOM, n_entries=16, seed=2)
    for block in range(GEOM.blocks_per_plane):
        remapper(PhysAddr(0, 0, 0, 0, block, 0))
    assert remapper.lookups == GEOM.blocks_per_plane
    assert 0 < remapper.hits <= remapper.lookups


def test_remapper_rejects_negative_entries():
    with pytest.raises(ConfigError):
        SrtRemapper(GEOM, n_entries=-1)
