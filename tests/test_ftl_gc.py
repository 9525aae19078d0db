"""GC engine tests on a miniature SSD with a stub datapath."""

import pytest

from repro.controller import Breakdown
from repro.errors import ConfigError, MappingError
from repro.flash import FlashGeometry
from repro.ftl import BlockManager, GarbageCollector, PageMappingTable
from repro.sim import Simulator

GEOM = FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                     blocks_per_plane=6, pages_per_block=4)


class StubDatapath:
    """Constant-latency datapath that records calls."""

    def __init__(self, sim, move_us=10.0, erase_us=100.0):
        self.sim = sim
        self.move_us = move_us
        self.erase_us = erase_us
        self.moves = []
        self.erases = []

    def gc_move(self, src, dst):
        yield self.sim.timeout(self.move_us)
        self.moves.append((src, dst))
        return Breakdown()

    def gc_erase(self, addr):
        yield self.sim.timeout(self.erase_us)
        self.erases.append(addr)
        return Breakdown()


class StubHost:
    outstanding = 0


def make_world(policy="pagc", valid_per_block=2, filled_fraction=0.9,
               **gc_kwargs):
    sim = Simulator()
    mapping = PageMappingTable(GEOM.pages_total)
    blocks = BlockManager(GEOM, gc_reserve_blocks=1)
    datapath = StubDatapath(sim)
    lpn = 0
    n_fill = int(GEOM.blocks_total * filled_fraction)
    filled = 0
    offsets = list(range(valid_per_block))
    for plane in range(GEOM.planes_total):
        base = plane * GEOM.blocks_per_plane
        plane_blocks = list(range(base, base + GEOM.blocks_per_plane))
        plane_blocks = plane_blocks[:n_fill - filled]
        blocks.prefill_plane(plane, plane_blocks,
                             offsets * len(plane_blocks))
        for block in plane_blocks:
            for page in offsets:
                mapping.bind(lpn, block * GEOM.pages_per_block + page)
                lpn += 1
        filled += len(plane_blocks)
    gc = GarbageCollector(sim, mapping, blocks, datapath, host=StubHost(),
                          policy=policy, **gc_kwargs)
    return sim, mapping, blocks, datapath, gc


def test_gc_triggers_below_threshold():
    sim, _m, blocks, _d, gc = make_world(filled_fraction=0.95)
    assert blocks.free_fraction < gc.trigger_free_fraction
    assert gc.maybe_trigger()
    assert gc.active
    sim.run()
    assert not gc.active
    assert blocks.free_fraction >= gc.stop_free_fraction


def test_gc_does_not_trigger_above_threshold():
    sim, _m, _b, _d, gc = make_world(filled_fraction=0.5)
    assert not gc.maybe_trigger()
    assert not gc.active


def test_gc_force_trigger():
    sim, _m, _b, _d, gc = make_world(filled_fraction=0.5)
    assert gc.maybe_trigger(force=True)
    sim.run()


def test_gc_moves_valid_pages_and_preserves_mapping():
    sim, mapping, blocks, datapath, gc = make_world(filled_fraction=0.95)
    lpns_before = dict(mapping.items())
    assert lpns_before
    gc.maybe_trigger()
    sim.run()
    # Every LPN that existed still resolves somewhere.
    for lpn in lpns_before:
        assert mapping.lookup(lpn) is not None
    mapping.check_consistency()
    assert gc.stats.pages_moved == len(datapath.moves)
    assert gc.stats.blocks_erased == len(datapath.erases)
    assert gc.stats.blocks_erased > 0


def test_gc_episode_log_records_work():
    sim, _m, _b, _d, gc = make_world(filled_fraction=0.95)
    gc.maybe_trigger()
    sim.run()
    assert len(gc.stats.episode_log) == 1
    episode = gc.stats.episode_log[0]
    assert episode["end"] > episode["start"]
    assert episode["blocks"] == gc.stats.blocks_erased
    assert gc.stats.busy_time == pytest.approx(
        episode["end"] - episode["start"])


def test_gc_skips_pages_invalidated_before_move():
    sim, mapping, blocks, datapath, gc = make_world(filled_fraction=0.95)
    # Invalidate a bunch of LPNs as a host overwrite would.
    for lpn in range(20):
        ppn = mapping.lookup(lpn)
        if ppn is not None:
            mapping.unbind(lpn)
            blocks.invalidate(ppn)
    gc.maybe_trigger()
    sim.run()
    mapping.check_consistency()


def test_preemptive_gc_waits_for_io():
    sim, _m, blocks, datapath, gc = make_world(
        policy="preemptive", filled_fraction=0.95, preempt_poll_us=5.0)
    gc.host.outstanding = 1

    def quiet_later(sim):
        yield sim.timeout(500.0)
        gc.host.outstanding = 0

    sim.process(quiet_later(sim))
    gc.maybe_trigger()
    sim.run()
    # No page move can complete before I/O went quiet (hard floor not hit).
    assert gc.stats.episode_log[0]["end"] > 500.0
    assert gc.stats.pages_moved > 0


def test_preemptive_gc_hard_floor_overrides_io():
    sim, _m, blocks, _d, gc = make_world(
        policy="preemptive", filled_fraction=0.95,
        hard_floor_fraction=0.5)  # floor above current free fraction
    gc.host.outstanding = 5      # I/O never goes quiet
    gc.maybe_trigger()
    sim.run()
    assert gc.stats.pages_moved > 0


def test_tinytail_limits_concurrent_channels():
    sim, _m, _b, datapath, gc = make_world(
        policy="tinytail", filled_fraction=0.95, tinytail_channels=1)
    gc.maybe_trigger()
    sim.run()
    assert gc.stats.pages_moved > 0
    assert gc.stats.blocks_erased > 0


def test_gc_invalid_configs():
    sim = Simulator()
    mapping = PageMappingTable(GEOM.pages_total)
    blocks = BlockManager(GEOM, gc_reserve_blocks=1)
    with pytest.raises(ConfigError):
        GarbageCollector(sim, mapping, blocks, None, policy="magic")
    with pytest.raises(ConfigError):
        GarbageCollector(sim, mapping, blocks, None,
                         trigger_free_fraction=0.5,
                         stop_free_fraction=0.4)
    with pytest.raises(ConfigError):
        GarbageCollector(sim, mapping, blocks, None, pipeline_depth=0)


def test_gc_throughput_metric():
    sim, _m, _b, _d, gc = make_world(filled_fraction=0.95)
    gc.maybe_trigger()
    sim.run()
    assert gc.stats.throughput_pages_per_us > 0.0


def _starved_move(poll_us):
    """A GC page move on a device with no free block anywhere: its
    destination wait can only end by starvation or by a host overwrite."""
    sim, mapping, blocks, _d, gc = make_world(filled_fraction=1.0,
                                              preempt_poll_us=poll_us)
    assert not blocks.host_allocatable() and blocks.free_blocks == 0
    src = GEOM.ppn_of(GEOM.block_addr_of(0)._replace(page=0))
    sim.process(gc._move_page(src))
    return sim, mapping, blocks, gc, src


def test_gc_destination_starvation_bound():
    """After 10,000 failed polls the move raises instead of livelocking:
    at the simulated time and stall count the poll loop has always had
    (a 0.3 us interval makes the accumulated float time exact)."""
    sim, _m, _b, gc, src = _starved_move(0.3)
    with pytest.raises(MappingError, match="gc destination starvation: no "
                       r"erase completed in 3000us while relocating"):
        sim.run()
    assert sim.now == 3000.0000000003583
    assert gc.stats.alloc_stalls == 10_001
    assert sim._seq == 10_001      # bootstrap + one entry per poll
    assert gc.stats.pages_dropped == 0


def test_gc_destination_wait_drops_overwritten_source():
    """A host overwrite during the wait ends it at the next poll, before
    that poll tries to allocate."""
    sim, mapping, blocks, gc, src = _starved_move(0.3)
    lpn = mapping.reverse_lookup(src)

    def overwrite():
        yield sim.timeout(1.0)
        mapping.unbind(lpn)

    sim.process(overwrite())
    sim.run()
    assert sim.now == 1.2
    assert gc.stats.pages_dropped == 1
    assert gc.stats.alloc_stalls == 4
    assert src % GEOM.pages_per_block not in blocks.info(
        src // GEOM.pages_per_block).valid


def test_finished_device_is_freed_by_one_collection():
    """A run that ends with processes parked mid-wait leaves them on the
    finished simulator's heap.  One full collection must free the whole
    device, or every later run in the process carries it.

    Collecting that garbage runs the parked generators' ``finally``
    blocks, and one of them triggers an event: the new heap entry
    resurrects the simulator for one more collection.  Whatever its
    heap still reaches survives with it -- so a pending wait must not
    reach into the FTL.  A weakref cannot tell: the collector clears
    weakrefs before it runs finalizers, so the check looks the block
    manager up among the objects still alive instead.
    """
    import gc as cyclic_gc

    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    geometry = FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                             blocks_per_plane=12, pages_per_block=16)
    ssd = build_ssd("bw", geometry=geometry, prefill_fraction=0.92,
                    gc_policy="tinytail")
    ssd.prefill()
    ssd.run(SyntheticWorkload(pattern="mixed", io_size=4096,
                              read_fraction=0.2), duration_us=3000.0)
    # Mid-episode, with flushers still polling for a host page.
    assert ssd.gc.active and ssd.ftl.flush_stalls > 0
    assert ssd.sim.peek() is not None
    blocks_id = id(ssd.ftl.blocks)
    del ssd
    cyclic_gc.collect()
    assert not any(id(obj) == blocks_id and type(obj) is BlockManager
                   for obj in cyclic_gc.get_objects())
