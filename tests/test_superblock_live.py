"""Tests for live (DES-integrated) dynamic superblock management."""

import pytest

from repro.core import ArchPreset, build_ssd, sim_geometry
from repro.errors import ConfigError, MappingError
from repro.flash import PhysAddr
from repro.sim import Simulator
from repro.superblock import LiveDynamicSuperblocks
from repro.workloads import SyntheticWorkload
from tests.dispatch_recorder import fingerprint, record_dispatch

GEOM = sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=8,
                    pages_per_block=8)


def make_live(reserved=0, srt_capacity=64):
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=GEOM, queue_depth=8)
    live = LiveDynamicSuperblocks(ssd, srt_capacity=srt_capacity,
                                  reserved_superblocks=reserved)
    ssd.prefill()
    return ssd, live


def subblock_info(ssd, live, sb, channel):
    """The FTL's block info for sub-block (sb, channel)."""
    return ssd.blocks.info(GEOM.block_index(live.subblock_addr(sb, channel)))


def full_superblock(ssd, live):
    """Find a superblock whose sub-blocks are all FULL (prefilled)."""
    for sb in range(live.manager.visible):
        if all(subblock_info(ssd, live, sb, c).state == "full"
               for c in range(GEOM.channels)):
            return sb
    raise AssertionError("no fully-prefilled superblock found")


def test_addressing_roundtrip():
    ssd, live = make_live()
    for sb in (0, 7, live.n_superblocks - 1):
        for channel in range(GEOM.channels):
            addr = live.subblock_addr(sb, channel, page=3)
            assert live.superblock_of(addr) == sb
            assert addr.channel == channel
            assert addr.page == 3
            assert live.subblock_index(sb, channel) == GEOM.block_index(addr)


def test_first_failure_migrates_and_marks_bad():
    ssd, live = make_live()
    sb = full_superblock(ssd, live)
    valid_before = sum(
        subblock_info(ssd, live, sb, c).valid_count
        for c in range(GEOM.channels)
    )
    assert valid_before > 0
    proc = live.inject_uncorrectable(sb, channel=1)
    ssd.sim.run()
    assert proc.triggered
    assert live.ftl_migrations == 1
    assert live.bad_superblocks == 1
    ssd.mapping.check_consistency()
    for channel in range(GEOM.channels):
        info = subblock_info(ssd, live, sb, channel)
        assert info.state == "bad"
        assert info.valid_count == 0
    # Survivor sub-blocks were recycled (all channels except the failed).
    assert sum(len(r) for r in live.manager.rbt) == GEOM.channels - 1


def test_second_failure_heals_in_hardware():
    ssd, live = make_live()
    sb_first = full_superblock(ssd, live)
    live.inject_uncorrectable(sb_first, channel=0)
    ssd.sim.run()
    # Pick another fully-prefilled superblock and fail a channel that
    # now has a recycled block available (any channel except 0).
    sb_second = full_superblock(ssd, live)
    proc = live.inject_uncorrectable(sb_second, channel=2)
    ssd.sim.run()
    assert proc.triggered
    assert live.recycle_copies == 1
    assert live.bad_superblocks == 1          # still only the first
    assert live.recycled_pages_copied > 0
    # The remap now redirects accesses for (sb_second, ch2).
    original = live.subblock_addr(sb_second, 2, page=1)
    remapped = live.remap(original)
    assert remapped != original
    assert remapped.channel == 2              # within-channel remap
    assert live.superblock_of(remapped) == sb_first


def test_remap_identity_before_any_failure():
    ssd, live = make_live()
    addr = PhysAddr(1, 0, 0, 1, 3, 2)
    assert live.remap(addr) == addr


def test_reads_work_through_remap_under_io():
    """End-to-end: after a hardware heal, host reads still complete."""
    ssd, live = make_live()
    sb_first = full_superblock(ssd, live)
    live.inject_uncorrectable(sb_first, channel=0)
    ssd.sim.run()
    sb_second = full_superblock(ssd, live)
    live.inject_uncorrectable(sb_second, channel=1)
    ssd.sim.run()
    workload = SyntheticWorkload(pattern="rand_read", io_size=4096)
    result = ssd.run(workload, duration_us=5_000, trigger_gc=False)
    assert result.requests_completed > 0
    ssd.mapping.check_consistency()


def test_reserved_superblocks_invisible_and_absorb_first_failure():
    ssd, live = make_live(reserved=4)
    # Reserved sub-blocks are marked bad toward the FTL.
    assert ssd.blocks.bad_blocks == 4 * GEOM.channels
    sb = full_superblock(ssd, live)
    proc = live.inject_uncorrectable(sb, channel=0)
    ssd.sim.run()
    assert proc.triggered
    assert live.bad_superblocks == 0          # healed, not sacrificed
    assert live.recycle_copies == 1


def test_attach_after_prefill_rejected():
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=GEOM)
    ssd.prefill()
    with pytest.raises(ConfigError):
        LiveDynamicSuperblocks(ssd)


def test_double_injection_rejected_after_death():
    ssd, live = make_live()
    sb = full_superblock(ssd, live)
    live.inject_uncorrectable(sb, channel=0)
    ssd.sim.run()
    with pytest.raises(MappingError):
        live.inject_uncorrectable(sb, channel=1)


def test_stats_keys():
    ssd, live = make_live()
    stats = live.stats()
    for key in ("bad_superblocks", "recycle_copies", "srt_active",
                "rbt_available"):
        assert key in stats


#: Recorded ``(stream hash, end-state hash)`` per case of
#: :func:`test_first_failure_during_host_writes_retires_whole_superblock`
#: (see :func:`tests.dispatch_recorder.fingerprint`).  Both cases tick
#: the migration's ownership wait, so the stream pins its poll grid.
OWNERSHIP_WAIT_GOLDEN = {
    "gc-claims-subblock": ("e4f4107fa137f8f4", "7ed4abd3a6bc6ac3"),
    "open-subblock": ("f271b5103c31244e", "562c44985d146244"),
}

#: What an entry resuming the migration from its ownership wait
#: describes itself as: a tick of that wait, whose check failed.
_OWNERSHIP_TICK = "timeout resuming process 'ftl_migration'"


@pytest.mark.parametrize("seed,inject_at,sb", [(1, 100.0, 1), (2, 600.0, 30)],
                         ids=["gc-claims-subblock", "open-subblock"])
def test_first_failure_during_host_writes_retires_whole_superblock(
        request, seed, inject_at, sb):
    """The first failure lands while the host writes and GC runs: in
    the first case GC is collecting a sub-block when the migration
    reaches it, in the second a sub-block is the open block the host
    is writing into.  The migration must own each sub-block before it
    retires it, so no LPN is left mapped into a bad block.

    The migration's ownership wait fails its check at least once in
    each case, and the dispatch stream and end state match their
    recorded fingerprints."""
    failed_checks = []

    def count_tick(entry):
        if Simulator._describe_callback(entry[2]) == _OWNERSHIP_TICK:
            failed_checks.append(entry[0])

    def scenario():
        ssd = build_ssd(ArchPreset.DSSD_F, geometry=GEOM, queue_depth=8,
                        prefill_fraction=0.9, seed=seed)
        live = LiveDynamicSuperblocks(ssd, srt_capacity=64)
        ssd.prefill()
        handlers = []

        def injector():
            yield ssd.sim.timeout(inject_at)
            handlers.append(live.inject_uncorrectable(sb, channel=0))

        ssd.sim.process(injector())
        result = ssd.run(SyntheticWorkload(pattern="rand_write",
                                           io_size=4096),
                         duration_us=3000.0)
        ssd.sim.run()
        assert handlers and handlers[0].triggered
        assert live.ftl_migrations == 1
        assert ssd.ftl.audit() == []
        bad = set()
        for channel in range(GEOM.channels):
            block = live.subblock_index(sb, channel)
            info = ssd.blocks.info(block)
            assert info.state == "bad" and info.mask == 0
            bad.add(block)
        pages_per_block = GEOM.pages_per_block
        assert not [lpn for lpn, ppn in ssd.mapping.items()
                    if ppn // pages_per_block in bad]
        return (ssd.sim.now, live.stats(), result.requests_completed,
                ssd.ftl.flush_stalls,
                ssd.gc.stats.state_dict()["counters"], failed_checks)

    def run():
        with record_dispatch(count_tick):
            return scenario()

    observed = fingerprint(run)
    assert failed_checks, "the ownership wait never failed a check"
    case = request.node.callspec.id
    assert observed == OWNERSHIP_WAIT_GOLDEN[case], \
        f"{case}: fingerprint {observed} != golden"
