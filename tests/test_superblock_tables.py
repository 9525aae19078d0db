"""Unit tests for SRT, RBT, and the dynamic superblock manager."""

import pytest

from repro.errors import ConfigError, MappingError
from repro.superblock import (
    DynamicSuperblockManager,
    RecycleBlockTable,
    SuperblockRemapTable,
)


# ---------------------------------------------------------------- RBT


def test_rbt_fifo_order():
    rbt = RecycleBlockTable(0)
    rbt.add("a")
    rbt.add("b")
    assert len(rbt) == 2
    assert rbt.take() == "a"
    assert rbt.take() == "b"
    assert rbt.take() is None
    assert rbt.total_added == 2
    assert rbt.total_taken == 2


def test_rbt_peek_does_not_remove():
    rbt = RecycleBlockTable(1)
    rbt.add("x")
    assert rbt.peek_all() == ["x"]
    assert len(rbt) == 1


# ---------------------------------------------------------------- SRT


def test_srt_lookup_identity_when_unmapped():
    srt = SuperblockRemapTable(0, capacity=4)
    assert srt.lookup("key") == "key"
    assert srt.active_entries == 0


def test_srt_insert_and_lookup():
    srt = SuperblockRemapTable(0, capacity=4)
    assert srt.insert("dead", "recycled")
    assert srt.lookup("dead") == "recycled"
    assert srt.active_entries == 1
    assert srt.inserts == 1


def test_srt_capacity_enforced():
    srt = SuperblockRemapTable(0, capacity=1)
    assert srt.insert("a", "x")
    assert not srt.insert("b", "y")
    assert srt.rejected == 1
    assert srt.lookup("b") == "b"


def test_srt_infinite_capacity():
    srt = SuperblockRemapTable(0, capacity=None)
    for index in range(5000):
        assert srt.insert(index, -index)
    assert srt.active_entries == 5000
    assert not srt.is_full


def test_srt_duplicate_key_rejected():
    srt = SuperblockRemapTable(0, capacity=4)
    srt.insert("a", "x")
    with pytest.raises(MappingError):
        srt.insert("a", "y")


def test_srt_remove_frees_entry():
    srt = SuperblockRemapTable(0, capacity=1)
    srt.insert("a", "x")
    srt.remove("a")
    assert srt.active_entries == 0
    assert srt.insert("b", "y")


def test_srt_occupancy_log_grows():
    srt = SuperblockRemapTable(0, capacity=None)
    srt.insert(1, 2)
    srt.insert(3, 4)
    assert srt.occupancy_log == [(1, 1), (2, 2)]


def test_srt_invalid_capacity():
    with pytest.raises(ConfigError):
        SuperblockRemapTable(0, capacity=0)


# ------------------------------------------------------- DynamicSuperblockManager


def test_first_failure_kills_superblock_and_recycles_survivors():
    """Paper Fig 6(a): the first bad superblock is sacrificed."""
    mgr = DynamicSuperblockManager(n_superblocks=4, channels=3)
    outcome = mgr.on_uncorrectable(superblock=0, channel=1)
    assert outcome == "superblock_dead"
    assert mgr.bad_superblocks == 1
    assert mgr.ftl_notifications == [0]
    # Channels 0 and 2 recycled their good sub-blocks; channel 1 did not.
    assert len(mgr.rbt[0]) == 1
    assert len(mgr.rbt[1]) == 0
    assert len(mgr.rbt[2]) == 1


def test_second_failure_remaps_without_ftl(paper_example=True):
    """Paper Fig 6(b,c): a later failure uses a recycled block, the FTL
    is not notified, and a copyback moves the valid pages."""
    mgr = DynamicSuperblockManager(n_superblocks=4, channels=3)
    mgr.on_uncorrectable(superblock=0, channel=1)
    outcome = mgr.on_uncorrectable(superblock=3, channel=2)
    assert outcome == "remapped"
    assert mgr.bad_superblocks == 1           # superblock 3 survives
    assert mgr.ftl_notifications == [0]       # no new notification
    assert mgr.resolve(3, 2) == (0, 2)        # remapped onto sb 0's block
    assert mgr.copyback_requests == [((3, 2), (0, 2))]
    assert mgr.srt[2].active_entries == 1


def test_failure_in_channel_without_recycled_block_dies():
    mgr = DynamicSuperblockManager(n_superblocks=4, channels=2)
    mgr.on_uncorrectable(0, 0)   # channel 1 gains a recycled block
    # Failure in channel 0 has no recycled block (channel 0's block died).
    outcome = mgr.on_uncorrectable(1, 0)
    assert outcome == "superblock_dead"
    assert mgr.bad_superblocks == 2


def test_reserved_superblocks_absorb_first_failure():
    """RESERV: the first failure is remapped, not sacrificed."""
    mgr = DynamicSuperblockManager(n_superblocks=5, channels=2,
                                   reserved_superblocks=1)
    assert mgr.visible == 4
    outcome = mgr.on_uncorrectable(0, 0)
    assert outcome == "remapped"
    assert mgr.bad_superblocks == 0
    assert mgr.resolve(0, 0) == (4, 0)


def test_srt_full_forces_retirement():
    mgr = DynamicSuperblockManager(n_superblocks=6, channels=2,
                                   srt_capacity=1,
                                   reserved_superblocks=2)
    assert mgr.on_uncorrectable(0, 0) == "remapped"
    # SRT (capacity 1) is now full for channel 0.
    outcome = mgr.on_uncorrectable(1, 0)
    assert outcome == "superblock_dead"
    assert mgr.bad_superblocks == 1


def test_refused_remap_returns_recycled_block_to_rbt():
    mgr = DynamicSuperblockManager(n_superblocks=6, channels=2,
                                   srt_capacity=1,
                                   reserved_superblocks=2)
    assert mgr.on_uncorrectable(0, 0) == "remapped"     # takes (4, 0)
    assert mgr.on_uncorrectable(1, 0) == "superblock_dead"
    assert mgr.srt[0].rejected == 1
    # The refused (5, 0) is back; the failed (1, 0) is not recycled.
    assert mgr.rbt[0].peek_all() == [(5, 0)]
    assert mgr.rbt[1].peek_all() == [(4, 1), (5, 1), (1, 1)]


def test_second_failure_on_remapped_position_replaces_entry():
    mgr = DynamicSuperblockManager(n_superblocks=6, channels=2,
                                   reserved_superblocks=2)
    assert mgr.on_uncorrectable(0, 0) == "remapped"
    assert mgr.resolve(0, 0) == (4, 0)
    # The recycled block serving the position fails in turn.
    assert mgr.on_uncorrectable(0, 0) == "remapped"
    assert mgr.resolve(0, 0) == (5, 0)
    assert mgr.srt[0].active_entries == 1
    assert mgr.srt[0].entries() == {(0, 0): (5, 0)}
    assert mgr.copyback_requests[-1] == ((4, 0), (5, 0))
    assert {(0, 0), (4, 0)} <= mgr.dead_subblocks


def test_retirement_frees_srt_entries_and_recycles_unfailed_blocks():
    mgr = DynamicSuperblockManager(n_superblocks=6, channels=2,
                                   reserved_superblocks=2)
    assert mgr.on_uncorrectable(0, 0) == "remapped"     # (0,0) -> (4,0)
    assert mgr.on_uncorrectable(0, 1) == "remapped"     # (0,1) -> (4,1)
    assert mgr.on_uncorrectable(1, 0) == "remapped"     # (1,0) -> (5,0)
    assert len(mgr.rbt[0]) == 0
    # (4, 0) fails with channel 0's RBT empty: superblock 0 retires.
    assert mgr.on_uncorrectable(0, 0) == "superblock_dead"
    assert mgr.srt[0].entries() == {(1, 0): (5, 0)}
    assert mgr.srt[1].active_entries == 0
    assert mgr.resolve(0, 1) == (0, 1)
    # Only (4, 1) never failed; (0, 0), (0, 1) and (4, 0) all did.
    assert mgr.rbt[0].peek_all() == []
    assert mgr.rbt[1].peek_all() == [(5, 1), (4, 1)]


def test_double_failure_same_superblock_rejected_after_death():
    mgr = DynamicSuperblockManager(n_superblocks=2, channels=2)
    mgr.on_uncorrectable(0, 0)
    with pytest.raises(MappingError):
        mgr.on_uncorrectable(0, 0)


def test_manager_invalid_configs():
    with pytest.raises(ConfigError):
        DynamicSuperblockManager(0, 2)
    with pytest.raises(ConfigError):
        DynamicSuperblockManager(2, 2, reserved_superblocks=2)
