"""Golden digests of the pre-conditioned device state.

Every figure point, fleet shard and fuzz genome starts from
``SimulatedSSD.prefill()``: the paper's "fully utilized" device
(Sec 6.1), built instantly rather than simulated.  Each case below is
pinned to a hash of everything prefill leaves behind -- the LPN space,
the mapping's forward pairs, every block's allocator state, the free
pools and allocation cursors, and the flash backend's programmed pages.
A faster prefill must reproduce these digests exactly.

The values in :data:`GOLDEN` were recorded with the address-based
prefill (one ``PhysAddr`` and one ``ppn_of`` per mapped page), before
set-up moved onto integer block and page indices.  A mismatch message
prints the digest actually observed.

Prefill draws its page offsets once per process for each key (see
``repro.ftl.ftl._prefill_draws``), so each case is checked cold, warm
and after a device with another key.
"""

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from repro.core import build_ssd, sim_geometry
from repro.errors import ConfigError
from repro.flash import PhysAddr
from repro.ftl.ftl import _prefill_draws
from repro.reliability import ReliabilityConfig
from repro.superblock import LiveDynamicSuperblocks

#: Recorded digest per case (see the module docstring).
GOLDEN = {
    "baseline_default": "33ab619cb9b8a051",
    "dssd_f_default": "33ab619cb9b8a051",
    "fill_all_reserve_cap": "50e9fcf6a62ecad8",
    "fill_all_no_reserve": "ab9c34269da94207",
    "valid_ratio_zero": "a8463d7beb89db19",
    "valid_ratio_one": "bf0f5e2947515147",
    "reliability_spares": "75369be03d2aec7f",
    "live_superblock": "559b489da7317551",
    "remapped_blocks": "4e08ed1b2895b57d",
}


def prefill_digest(ssd):
    """sha256 (16 hex digits) of the state ``ssd.prefill()`` builds."""
    ssd.prefill()
    blocks = ssd.blocks
    state = {
        "lpn_space": ssd.lpn_space,
        "forward": list(ssd.mapping.items()),
        "blocks": [[index, info.state, info.write_ptr, sorted(info.valid),
                    info.pending]
                   for index, info in sorted(blocks.blocks.items())],
        "free": [list(pool) for pool in blocks._free],
        "active": blocks._active,
        "active_gc": blocks._active_gc,
        "cursor": blocks._cursor,
        "counts": [blocks.free_blocks, blocks.bad_blocks,
                   blocks.spare_blocks],
        "ready": [blocks.host_ready_count, blocks._gc_ready_count,
                  blocks._host_ready, blocks._gc_ready],
        "programmed": [[index, sorted(block.programmed), block.erase_count]
                       for index, block in sorted(
                           ssd.backend._blocks.items())],
    }
    ssd.mapping.check_consistency()
    blob = json.dumps(state, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_LIVE_GEOMETRY = sim_geometry(channels=4, ways=2, planes=2,
                              blocks_per_plane=8, pages_per_block=8)


def _live_superblock():
    """dssd_f with two reserved superblocks: bad sub-blocks in every
    channel before prefill, and the SRT remapper on the datapath.  The
    reserved superblocks are the last blocks of their planes, so the
    device fills every block to reach them."""
    ssd = build_ssd("dssd_f", geometry=_LIVE_GEOMETRY, queue_depth=8,
                    prefill_fraction=1.0, gc_reserve_blocks=0)
    LiveDynamicSuperblocks(ssd, srt_capacity=64, reserved_superblocks=2)
    return ssd


def _shift_block(addr):
    """A remapper that moves every block one slot up within its plane."""
    return PhysAddr(addr.channel, addr.way, addr.die, addr.plane,
                    (addr.block + 1) % _LIVE_GEOMETRY.blocks_per_plane,
                    addr.page)


CASES = {
    "baseline_default": lambda: build_ssd("baseline"),
    "dssd_f_default": lambda: build_ssd("dssd_f"),
    "fill_all_reserve_cap": lambda: build_ssd(
        "baseline", prefill_fraction=1.0),
    "fill_all_no_reserve": lambda: build_ssd(
        "baseline", prefill_fraction=1.0, gc_reserve_blocks=0),
    "valid_ratio_zero": lambda: build_ssd(
        "baseline", prefill_valid_ratio=0.0, seed=3),
    "valid_ratio_one": lambda: build_ssd(
        "dssd", prefill_valid_ratio=1.0, seed=4),
    # Spares come off the back of each free pool; only a fill of every
    # block reaches them, so prefill has to skip them.
    "reliability_spares": lambda: build_ssd(
        "dssd_f", reliability=ReliabilityConfig(base_rber=1e-5), seed=5,
        prefill_fraction=1.0, gc_reserve_blocks=0),
    "live_superblock": _live_superblock,
    "remapped_blocks": lambda: build_ssd(
        "baseline", geometry=_LIVE_GEOMETRY, remapper=_shift_block),
}


#: A case whose prefill draws with another key (seed, ratio or
#: geometry) than the case it is interleaved with.
_OTHER_KEY = {"valid_ratio_zero": "baseline_default"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_prefill_state_matches_golden(name):
    """Cold (no cached draw), warm (a second device in this process)
    and interleaved (after a device with another draw key) prefills
    all give the recorded digest."""
    _prefill_draws.cache_clear()
    observed = {"cold": prefill_digest(CASES[name]())}
    assert _prefill_draws.cache_info().misses == 1
    observed["warm"] = prefill_digest(CASES[name]())
    assert _prefill_draws.cache_info().hits == 1
    prefill_digest(CASES[_OTHER_KEY.get(name, "valid_ratio_zero")]())
    assert _prefill_draws.cache_info().misses == 2
    observed["interleaved"] = prefill_digest(CASES[name]())
    assert _prefill_draws.cache_info().hits == 2
    assert observed == dict.fromkeys(observed, GOLDEN[name]), (
        f"prefill digest of {name!r} changed: observed {observed!r}")


def test_a_warm_prefill_draws_no_sample(monkeypatch):
    """The second device with one key reuses the first one's draw: it
    never calls ``random.Random.sample``, where a cold prefill calls it
    once per filled block."""
    calls = []
    sample = random.Random.sample

    def counting_sample(self, *args, **kwargs):
        calls.append(args)
        return sample(self, *args, **kwargs)

    _prefill_draws.cache_clear()
    cold, warm = (build_ssd("baseline", geometry=_LIVE_GEOMETRY)
                  for _ in range(2))
    monkeypatch.setattr(random.Random, "sample", counting_sample)
    cold.prefill()
    assert len(calls) == _count(cold, "full") > 0
    calls.clear()
    warm.prefill()
    assert calls == []
    assert prefill_digest(warm) == prefill_digest(cold)


def _count(ssd, state):
    return sum(info.state == state for info in ssd.blocks.blocks.values())


def test_cases_reach_their_features():
    """Each case must hit the branch it exists for, or its digest pins
    nothing."""
    capped = build_ssd("baseline", prefill_fraction=1.0)
    capped.prefill()
    reserve = capped.config.gc_reserve_blocks
    assert all(capped.blocks.plane_free_blocks(plane) == reserve
               for plane in range(capped.config.geometry.planes_total))

    # Prefill fills every block of these two devices except the ones
    # withdrawn before it ran, which it must skip.
    spares = CASES["reliability_spares"]()
    spares.prefill()
    assert spares.blocks.spare_blocks > 0
    assert _count(spares, "full") + spares.blocks.spare_blocks \
        == spares.config.geometry.blocks_total

    live = _live_superblock()
    live.prefill()
    assert live.blocks.bad_blocks > 0
    assert _count(live, "full") + live.blocks.bad_blocks \
        == _LIVE_GEOMETRY.blocks_total

    remapped = CASES["remapped_blocks"]()
    remapped.prefill()
    full = {index for index, info in remapped.blocks.blocks.items()
            if info.state == "full"}
    assert set(remapped.backend._blocks) != full


def test_prefill_needs_an_empty_mapping():
    ssd = build_ssd("baseline", geometry=_LIVE_GEOMETRY)
    ssd.mapping.bind(0, 0)
    with pytest.raises(ConfigError, match="empty mapping"):
        ssd.ftl.prefill(fill_fraction=0.85, valid_ratio=0.45, seed=1)
    with pytest.raises(ConfigError, match="empty mapping"):
        ssd.prefill()
    # Nothing was filled before the check fired.
    assert ssd.blocks.free_blocks == _LIVE_GEOMETRY.blocks_total
    assert not ssd.backend._blocks


def test_prefill_is_idempotent_on_the_device():
    ssd = build_ssd("baseline", geometry=_LIVE_GEOMETRY)
    first = prefill_digest(ssd)
    assert ssd.prefill() == ssd.lpn_space
    assert prefill_digest(ssd) == first


def test_prefilled_default_device_fits_in_4_mb():
    """The dense mapping table keeps a prefilled device small.

    Two dicts with an int object per entry put the default baseline
    device at about 10 MB after prefill; two ``array('i')`` tables of
    ``pages_total`` slots each bring it to about 3.5 MB.  The draw cache
    is cleared first, so the bound covers the draw prefill caches too.
    """
    _prefill_draws.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        ssd = build_ssd("baseline", geometry=sim_geometry())
        ssd.prefill()
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 4 * 1024 * 1024, f"{held / 1e6:.2f} MB after prefill"
    pages = ssd.config.geometry.pages_total
    assert ssd.mapping.nbytes == 2 * 4 * pages
