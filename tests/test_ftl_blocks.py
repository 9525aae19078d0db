"""Unit and property tests for the block manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, MappingError
from repro.flash import FlashGeometry, PhysAddr
from repro.ftl import BlockManager
from repro.ftl.blocks import ACTIVE, BAD, FREE, FULL

GEOM = FlashGeometry(channels=2, ways=2, dies=1, planes=2,
                     blocks_per_plane=4, pages_per_block=4)


def make_manager(**kwargs):
    kwargs.setdefault("gc_reserve_blocks", 1)
    return BlockManager(GEOM, **kwargs)


def block_of(ppn):
    """Block index of the page with PPN *ppn*."""
    return ppn // GEOM.pages_per_block


def page_of(ppn):
    """Offset within its block of the page with PPN *ppn*."""
    return ppn % GEOM.pages_per_block


def prefill(mgr, block, offsets):
    """Prefill one block with *offsets* valid through the per-plane form."""
    mgr.prefill_plane(block // GEOM.blocks_per_plane, [block], list(offsets))


def test_initial_state_all_free():
    mgr = make_manager()
    assert mgr.free_blocks == GEOM.blocks_total
    assert mgr.free_fraction == 1.0
    assert mgr.bad_blocks == 0


def test_allocation_round_robins_planes():
    mgr = make_manager()
    addrs = [mgr.allocate_page() for _ in range(GEOM.planes_total)]
    planes = [GEOM.plane_index(GEOM.addr_of(a)) for a in addrs]
    assert sorted(planes) == list(range(GEOM.planes_total))


def test_allocation_fills_block_sequentially():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    assert [page_of(a) for a in addrs] == [0, 1, 2, 3]
    info = mgr.info(block_of(addrs[0]))
    assert info.state == FULL
    assert info.pending == 4


def test_commit_clears_pending_and_marks_valid():
    mgr = make_manager()
    addr = mgr.allocate_page()
    mgr.commit_page(addr, valid=True)
    info = mgr.info(block_of(addr))
    assert info.pending == 0
    assert page_of(addr) in info.valid


def test_commit_without_allocation_rejected():
    mgr = make_manager()
    with pytest.raises(MappingError):
        mgr.commit_page(GEOM.ppn_of(PhysAddr(0, 0, 0, 0, 0, 0)),
                        valid=False)


def test_host_allocation_respects_gc_reserve():
    mgr = BlockManager(
        FlashGeometry(channels=1, ways=1, dies=1, planes=1,
                      blocks_per_plane=3, pages_per_block=2),
        gc_reserve_blocks=2,
    )
    # Plane has 3 free blocks, 2 reserved: host can open only one block.
    a = mgr.allocate_page()
    b = mgr.allocate_page()
    assert a // 2 == b // 2          # 2 pages per block
    with pytest.raises(MappingError):
        mgr.allocate_page()          # host starved at the reserve
    gc_addr = mgr.allocate_page(for_gc=True)   # GC may dip into it
    assert gc_addr // 2 != a // 2


def test_pick_victim_greedy_fewest_valid():
    mgr = make_manager()
    first = [mgr.allocate_page(plane=0) for _ in range(4)]
    second = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in first:
        mgr.commit_page(addr, valid=True)
    for index, addr in enumerate(second):
        mgr.commit_page(addr, valid=index == 0)  # only one valid page
    victim = mgr.pick_victim(0)
    assert victim == block_of(second[0])


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
    # 100% valid: never a victim -- collecting it frees nothing and
    # burns the GC reserve.
    assert mgr.pick_victim(0) is None
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs[:3]:
        mgr.commit_page(addr, valid=True)
    mgr.commit_page(addrs[3], valid=False)  # 75% valid
    assert mgr.pick_victim(0) is not None


def test_release_block_returns_to_pool():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs:
        mgr.commit_page(addr, valid=False)
    free_before = mgr.free_blocks
    mgr.release_block(block_of(addrs[0]))
    assert mgr.free_blocks == free_before + 1
    assert mgr.info(block_of(addrs[0])).state == FREE


def test_release_block_with_valid_pages_rejected():
    mgr = make_manager()
    addrs = [mgr.allocate_page(plane=0) for _ in range(4)]
    for addr in addrs:
        mgr.commit_page(addr, valid=True)
    with pytest.raises(MappingError):
        mgr.release_block(block_of(addrs[0]))


def test_mark_bad_removes_from_pool():
    mgr = make_manager()
    mgr.mark_bad(0)
    assert mgr.info(0).state == BAD
    assert mgr.bad_blocks == 1
    assert mgr.free_blocks == GEOM.blocks_total - 1
    with pytest.raises(MappingError):
        mgr.release_block(0)


def _open_block_with_pending_page():
    """A manager whose plane-0 host block is open with one of its two
    allocated pages still in flight; returns (manager, block, page)."""
    mgr = make_manager()
    mgr.commit_page(mgr.allocate_page(plane=0), valid=True)
    page = mgr.allocate_page(plane=0)
    return mgr, block_of(page), page


def test_mark_bad_refuses_block_with_pending_pages():
    """Retiring a block with a program in flight would leave the
    program's LPN mapped into a bad block: refused, nothing changed."""
    mgr, block, page = _open_block_with_pending_page()
    twin, _, twin_page = _open_block_with_pending_page()
    with pytest.raises(MappingError):
        mgr.mark_bad(block)
    assert mgr.info(block).state == ACTIVE
    assert mgr.info(block).pending == 1
    mgr.commit_page(page, valid=True)
    twin.commit_page(twin_page, valid=True)
    assert mgr.state_dict() == twin.state_dict()
    assert mgr.host_ready_count == twin.host_ready_count


def test_close_block_stops_allocation_but_lets_pending_commit():
    mgr, block, page = _open_block_with_pending_page()
    mgr.close_block(block)
    info = mgr.info(block)
    assert info.state == FULL and info.write_ptr == 2
    assert block_of(mgr.allocate_page(plane=0)) != block
    mgr.commit_page(page, valid=True)
    assert info.valid == {0, 1}
    with pytest.raises(MappingError):
        mgr.close_block(block)
    mgr.mark_bad(block)
    assert info.state == BAD and info.mask == 0


def test_prefill_block():
    """One call lays down several blocks of a plane, each with its own
    run of offsets, and rebuilds the plane's pool and readiness once."""
    mgr = make_manager()
    mgr.prefill_plane(0, [2, 1], [0, 2, 3, 1])
    assert [mgr.info(2).state, mgr.info(1).state] == [FULL, FULL]
    assert mgr.info(2).valid == {0, 2} and mgr.info(1).valid == {1, 3}
    assert mgr.info(1).write_ptr == GEOM.pages_per_block
    assert mgr.free_blocks == GEOM.blocks_total - 2
    assert list(mgr._free[0]) == [0, 3]
    assert mgr.host_ready_count == GEOM.planes_total
    # Down to the GC reserve: the plane stops serving host allocations.
    mgr.prefill_plane(0, [0], [])
    assert mgr.info(0).state == FULL and mgr.info(0).mask == 0
    assert list(mgr._free[0]) == [3]
    assert mgr.host_ready_count == GEOM.planes_total - 1
    with pytest.raises(MappingError):
        mgr.prefill_plane(0, [2], [1])


@pytest.mark.parametrize("offset", [-1, GEOM.pages_per_block])
def test_prefill_block_rejects_offsets_outside_the_block(offset):
    mgr = make_manager()
    before = mgr.state_dict()
    with pytest.raises(AddressError):
        mgr.prefill_plane(0, [2, 3], [0, 1, 2, offset])
    assert mgr.state_dict() == before
    assert mgr.info(2).state == FREE


def _allocate_in_block_zero(mgr):
    mgr.commit_page(mgr.allocate_page(plane=0), valid=True)


@pytest.mark.parametrize("prepare,blocks,offsets,error", [
    (None, [1, GEOM.blocks_per_plane], [0, 1], AddressError),
    (None, [1], [-1], AddressError),
    (None, [1], [GEOM.pages_per_block], AddressError),
    (_allocate_in_block_zero, [1, 0], [0, 1], MappingError),
    (lambda mgr: mgr.mark_bad(3), [3], [0], MappingError),
    (None, [1, 1], [0, 1], MappingError),
    (None, [1, 2], [0, 1, 2], MappingError),
    (None, [1, 2], [0, 0, 1, 2], MappingError),
    (None, [], [0], MappingError),
], ids=["other-plane", "negative-offset", "offset-past-block", "active",
        "bad", "repeated-block", "uneven-offsets", "repeated-offset",
        "offsets-without-blocks"])
def test_prefill_plane_refuses_before_it_changes_anything(
        prepare, blocks, offsets, error):
    mgr = make_manager()
    if prepare is not None:
        prepare(mgr)
    before = mgr.state_dict()
    ready = (mgr.host_ready_count, list(mgr._host_ready))
    with pytest.raises(error):
        mgr.prefill_plane(0, blocks, offsets)
    assert mgr.state_dict() == before
    assert (mgr.host_ready_count, list(mgr._host_ready)) == ready


def test_valid_is_a_read_only_view():
    mgr = make_manager()
    prefill(mgr, 2, [3, 1])
    info = mgr.info(2)
    assert info.mask == 0b1010
    assert info.valid == {1, 3} and info.valid_count == 2
    with pytest.raises(AttributeError):
        info.valid.add(0)
    with pytest.raises(AttributeError):
        info.valid.clear()
    first = 2 * GEOM.pages_per_block
    mgr.invalidate(first + 3)
    mgr.mark_valid(first + 0)
    assert info.valid == {0, 1}
    info.valid = [2]
    assert info.mask == 0b100


def test_valid_pages_of_sorted():
    mgr = make_manager()
    prefill(mgr, 1, {3, 0, 1})
    pages = mgr.valid_pages_of(1)
    assert [page_of(p) for p in pages] == [0, 1, 3]
    assert all(block_of(p) == 1 for p in pages)


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
    assert block_of(second) == block_of(gc_addr)


def test_pick_victim_skips_fully_valid_blocks():
    """Collecting a 100%-valid block frees nothing: never pick one."""
    mgr = make_manager()
    prefill(mgr, 0, range(GEOM.pages_per_block))
    assert mgr.pick_victim(0) is None
    prefill(mgr, 1, {0, 1})
    victim = mgr.pick_victim(0)
    assert victim is not None
    assert victim == 1


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


#: Every integer-taking entry point, with the bound its argument must
#: stay below.  -1 must raise, not wrap into Python's negative indexing.
_INTEGER_ENTRY_POINTS = [
    ("info", lambda mgr, n: mgr.info(n), "blocks_total"),
    ("valid_pages_of", lambda mgr, n: mgr.valid_pages_of(n), "blocks_total"),
    ("claim_for_collection", lambda mgr, n: mgr.claim_for_collection(n),
     "blocks_total"),
    ("close_block", lambda mgr, n: mgr.close_block(n), "blocks_total"),
    ("release_block", lambda mgr, n: mgr.release_block(n), "blocks_total"),
    ("mark_bad", lambda mgr, n: mgr.mark_bad(n), "blocks_total"),
    ("prefill_plane", lambda mgr, n: mgr.prefill_plane(n, [], []),
     "planes_total"),
    ("prefill_plane_block", lambda mgr, n: mgr.prefill_plane(0, [n], [0]),
     "blocks_total"),
    ("page_addr", lambda mgr, n: mgr.page_addr(n), "pages_total"),
    ("mark_valid", lambda mgr, n: mgr.mark_valid(n), "pages_total"),
    ("commit_page", lambda mgr, n: mgr.commit_page(n, valid=True),
     "pages_total"),
    ("invalidate", lambda mgr, n: mgr.invalidate(n), "pages_total"),
    ("allocate_page", lambda mgr, n: mgr.allocate_page(plane=n),
     "planes_total"),
    ("pick_victim", lambda mgr, n: mgr.pick_victim(n), "planes_total"),
    ("withdraw_spare", lambda mgr, n: mgr.withdraw_spare(n), "planes_total"),
    ("plane_free_blocks", lambda mgr, n: mgr.plane_free_blocks(n),
     "planes_total"),
]


@pytest.mark.parametrize("bound", ["negative", "limit"])
@pytest.mark.parametrize(
    "call,limit", [entry[1:] for entry in _INTEGER_ENTRY_POINTS],
    ids=[entry[0] for entry in _INTEGER_ENTRY_POINTS])
def test_integer_entry_points_range_check(call, limit, bound):
    """-1 and the first index past the device raise AddressError and
    leave the manager untouched."""
    mgr = make_manager()
    page = mgr.allocate_page(plane=GEOM.planes_total - 1)
    mgr.commit_page(page, valid=True)
    before = mgr.state_dict()
    with pytest.raises(AddressError):
        call(mgr, -1 if bound == "negative" else getattr(GEOM, limit))
    assert mgr.state_dict() == before


# -- corrupt checkpoints -------------------------------------------------------

GEOM8 = FlashGeometry(channels=1, ways=1, dies=1, planes=2,
                      blocks_per_plane=4, pages_per_block=8)


def _checkpoint():
    """A checkpoint with a FULL block (0) and an ACTIVE one (4)."""
    mgr = BlockManager(GEOM8, gc_reserve_blocks=1)
    mgr.prefill_plane(0, [0], [1, 5])
    page = mgr.allocate_page(plane=1)
    mgr.commit_page(page, valid=True)
    return mgr.state_dict()


def _corrupt_free_pool_other_plane(state):
    state["free"][0].append(state["free"][1].pop())


def _corrupt_free_pool_repeat(state):
    state["free"][1].append(state["free"][1][0])


def _corrupt_negative_free_block(state):
    state["free"][0].append(-1)


def _corrupt_negative_active_block(state):
    state["active"][0] = -1


def _corrupt_write_ptr(state):
    state["blocks"][0][2] = 99


def _corrupt_valid_offset(state):
    state["blocks"][0][3].append(40)


@pytest.mark.parametrize("corrupt", [
    _corrupt_free_pool_other_plane,
    _corrupt_free_pool_repeat,
    _corrupt_negative_free_block,
    _corrupt_negative_active_block,
    _corrupt_write_ptr,
    _corrupt_valid_offset,
], ids=lambda corrupt: corrupt.__name__[len("_corrupt_"):])
def test_load_state_rejects_corrupt_checkpoint(corrupt):
    """Each corruption raises MappingError and leaves the manager as
    it was -- here, mid-way through its own traffic."""
    state = _checkpoint()
    corrupt(state)
    mgr = BlockManager(GEOM8, gc_reserve_blocks=1)
    page = mgr.allocate_page(plane=0)
    mgr.commit_page(page, valid=True)
    before = mgr.state_dict()
    with pytest.raises(MappingError):
        mgr.load_state(state)
    assert mgr.state_dict() == before
    assert mgr.allocate_page(plane=0) == page + 1


def test_load_state_accepts_the_uncorrupted_checkpoint():
    state = _checkpoint()
    mgr = BlockManager(GEOM8, gc_reserve_blocks=1)
    mgr.load_state(state)
    assert mgr.state_dict() == state
