"""Unit and property tests for the block manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.flash import FlashGeometry, PhysAddr
from repro.ftl import BlockManager
from repro.ftl.blocks import ACTIVE, BAD, FREE, FULL

GEOM = FlashGeometry(channels=2, ways=2, dies=1, planes=2,
                     blocks_per_plane=4, pages_per_block=4)


def make_manager(**kwargs):
    kwargs.setdefault("gc_reserve_blocks", 1)
    return BlockManager(GEOM, **kwargs)


def test_initial_state_all_free():
    mgr = make_manager()
    assert mgr.free_blocks == GEOM.blocks_total
    assert mgr.free_fraction == 1.0
    assert mgr.bad_blocks == 0


def test_allocation_round_robins_planes():
    mgr = make_manager()
    addrs = [mgr.allocate_page() for _ in range(GEOM.planes_total)]
    planes = [GEOM.plane_index(a) for a in addrs]
    assert sorted(planes) == list(range(GEOM.planes_total))


def test_allocation_fills_block_sequentially():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    assert [a.page for a in addrs] == [0, 1, 2, 3]
    info = mgr.info(addrs[0])
    assert info.state == FULL
    assert info.pending == 4


def test_commit_clears_pending_and_marks_valid():
    mgr = make_manager()
    addr = mgr.allocate_page()
    mgr.commit_page(addr, valid=True)
    info = mgr.info(addr)
    assert info.pending == 0
    assert addr.page in info.valid


def test_commit_without_allocation_rejected():
    mgr = make_manager()
    with pytest.raises(MappingError):
        mgr.commit_page(PhysAddr(0, 0, 0, 0, 0, 0), valid=False)


def test_host_allocation_respects_gc_reserve():
    mgr = BlockManager(
        FlashGeometry(channels=1, ways=1, dies=1, planes=1,
                      blocks_per_plane=3, pages_per_block=2),
        gc_reserve_blocks=2,
    )
    # Plane has 3 free blocks, 2 reserved: host can open only one block.
    a = mgr.allocate_page()
    b = mgr.allocate_page()
    assert a.block == b.block
    with pytest.raises(MappingError):
        mgr.allocate_page()          # host starved at the reserve
    gc_addr = mgr.allocate_page(for_gc=True)   # GC may dip into it
    assert gc_addr.block != a.block


def test_pick_victim_greedy_fewest_valid():
    mgr = make_manager()
    first = [mgr.allocate_page(plane=0) for _ in range(4)]
    second = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in first:
        mgr.commit_page(addr, valid=True)
    for index, addr in enumerate(second):
        mgr.commit_page(addr, valid=index == 0)  # only one valid page
    victim = mgr.pick_victim(0)
    assert victim.block == second[0].block


def test_pick_victim_skips_pending_blocks():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs[:-1]:
        mgr.commit_page(addr, valid=False)
    # One program still in flight: not an eligible victim.
    assert mgr.pick_victim(0) is None
    mgr.commit_page(addrs[-1], valid=False)
    assert mgr.pick_victim(0) is not None


def test_pick_victim_respects_valid_fraction_limit():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs:
        mgr.commit_page(addr, valid=True)
    # 100% valid: never a victim, even at max_valid_fraction=1.0 --
    # collecting it frees nothing and burns the GC reserve.
    assert mgr.pick_victim(0, max_valid_fraction=1.0) is None
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs[:3]:
        mgr.commit_page(addr, valid=True)
    mgr.commit_page(addrs[3], valid=False)  # 75% valid
    assert mgr.pick_victim(0, max_valid_fraction=0.5) is None
    assert mgr.pick_victim(0, max_valid_fraction=1.0) is not None


def test_release_block_returns_to_pool():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs:
        mgr.commit_page(addr, valid=False)
    free_before = mgr.free_blocks
    mgr.release_block(addrs[0])
    assert mgr.free_blocks == free_before + 1
    assert mgr.info(addrs[0]).state == FREE


def test_release_block_with_valid_pages_rejected():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs:
        mgr.commit_page(addr, valid=True)
    with pytest.raises(MappingError):
        mgr.release_block(addrs[0])


def test_mark_bad_removes_from_pool():
    mgr = make_manager()
    addr = GEOM.block_addr_of(0)
    mgr.mark_bad(addr)
    assert mgr.info(addr).state == BAD
    assert mgr.bad_blocks == 1
    assert mgr.free_blocks == GEOM.blocks_total - 1
    with pytest.raises(MappingError):
        mgr.release_block(addr)


def test_prefill_block():
    mgr = make_manager()
    addr = GEOM.block_addr_of(2)
    mgr.prefill_block(addr, {0, 2})
    info = mgr.info(addr)
    assert info.state == FULL
    assert info.valid == {0, 2}
    assert mgr.free_blocks == GEOM.blocks_total - 1
    with pytest.raises(MappingError):
        mgr.prefill_block(addr, {1})


def test_valid_is_a_read_only_view():
    mgr = make_manager()
    addr = GEOM.block_addr_of(2)
    mgr.prefill_block(addr, [3, 1])
    info = mgr.info(addr)
    assert info.mask == 0b1010
    assert info.valid == {1, 3} and info.valid_count == 2
    with pytest.raises(AttributeError):
        info.valid.add(0)
    with pytest.raises(AttributeError):
        info.valid.clear()
    mgr.invalidate(addr._replace(page=3))
    mgr.mark_valid(addr._replace(page=0))
    assert info.valid == {0, 1}
    info.valid = [2]
    assert info.mask == 0b100


def test_valid_pages_of_sorted():
    mgr = make_manager()
    addr = GEOM.block_addr_of(1)
    mgr.prefill_block(addr, {3, 0, 1})
    pages = mgr.valid_pages_of(addr)
    assert [p.page for p in pages] == [0, 1, 3]


def test_invalid_reserve_configs():
    with pytest.raises(MappingError):
        BlockManager(GEOM, gc_reserve_blocks=-1)
    with pytest.raises(MappingError):
        BlockManager(GEOM, gc_reserve_blocks=GEOM.blocks_per_plane)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_accounting_invariant_under_allocate_commit(valid_flags):
    """Property: free + active/full/bad partitions stay consistent and
    allocate/commit never corrupts valid-count accounting."""
    mgr = make_manager()
    allocated = []
    for flag in valid_flags:
        try:
            addr = mgr.allocate_page()
        except MappingError:
            break
        allocated.append((addr, flag))
    for addr, flag in allocated:
        mgr.commit_page(addr, valid=flag)
    total_valid = sum(info.valid_count for info in mgr.blocks.values())
    assert total_valid == sum(1 for _a, f in allocated if f)
    assert all(info.pending == 0 for info in mgr.blocks.values())
    states = {info.state for info in mgr.blocks.values()}
    assert states <= {FREE, ACTIVE, FULL, BAD}


def test_host_never_drains_gc_opened_active_block():
    """Host and GC write streams use separate active blocks.

    A block GC opened out of its per-plane reserve must not serve host
    allocations: host traffic stealing relocation headroom is how the
    device livelocks (every GC worker waiting for an erase that needs a
    destination page first).
    """
    mgr = make_manager()
    # Drain plane 0 to exactly the reserve so only GC may open a block.
    while len(mgr._free[0]) > mgr.gc_reserve_blocks:
        for _ in range(GEOM.pages_per_block):
            mgr.allocate_page(plane=0)
    gc_addr = mgr.allocate_page(for_gc=True, plane=0)
    assert mgr._active_gc[0] is not None
    # The host must NOT be handed pages from the GC's open block.
    with pytest.raises(MappingError):
        mgr.allocate_page(for_gc=False, plane=0)
    # GC keeps writing into its own stream.
    second = mgr.allocate_page(for_gc=True, plane=0)
    assert second.block_addr() == gc_addr.block_addr()


def test_pick_victim_skips_fully_valid_blocks():
    """Collecting a 100%-valid block frees nothing: never pick one."""
    mgr = make_manager()
    full_valid = GEOM.block_addr_of(0)
    mgr.prefill_block(full_valid, set(range(GEOM.pages_per_block)))
    assert mgr.pick_victim(0) is None
    partial = GEOM.block_addr_of(1)
    mgr.prefill_block(partial, {0, 1})
    victim = mgr.pick_victim(0)
    assert victim is not None
    assert victim.block_addr() == partial.block_addr()


def test_state_roundtrip_preserves_gc_stream():
    mgr = make_manager()
    mgr.allocate_page(for_gc=True, plane=0)
    # Commit the pending page so the state can snapshot.
    mgr.blocks[mgr._active_gc[0]].pending = 0
    state = mgr.state_dict()
    clone = make_manager()
    clone.load_state(state)
    assert clone._active_gc == mgr._active_gc
    assert clone._active == mgr._active
