"""Unit and property tests for the page mapping table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.ftl import PageMappingTable


def test_bind_and_lookup():
    table = PageMappingTable()
    assert table.lookup(5) is None
    table.bind(5, 100)
    assert table.lookup(5) == 100
    assert table.reverse_lookup(100) == 5
    assert len(table) == 1


def test_rebind_invalidates_old_ppn():
    table = PageMappingTable()
    table.bind(5, 100)
    old = table.bind(5, 200)
    assert old == 100
    assert table.reverse_lookup(100) is None
    assert table.lookup(5) == 200


def test_bind_to_occupied_ppn_rejected():
    table = PageMappingTable()
    table.bind(1, 100)
    with pytest.raises(MappingError):
        table.bind(2, 100)


def test_rebind_same_pair_is_noop_like():
    table = PageMappingTable()
    table.bind(1, 100)
    old = table.bind(1, 100)
    assert old == 100
    assert table.lookup(1) == 100
    table.check_consistency()


def test_move_rebinds_lpn():
    table = PageMappingTable()
    table.bind(7, 100)
    lpn = table.move(100, 300)
    assert lpn == 7
    assert table.lookup(7) == 300
    assert table.reverse_lookup(100) is None
    table.check_consistency()


def test_move_from_invalid_ppn_rejected():
    table = PageMappingTable()
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_move_to_occupied_ppn_rejected():
    table = PageMappingTable()
    table.bind(1, 100)
    table.bind(2, 200)
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_unbind():
    table = PageMappingTable()
    table.bind(1, 100)
    assert table.unbind(1) == 100
    assert table.lookup(1) is None
    assert table.reverse_lookup(100) is None
    assert table.unbind(99) is None


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100)),
                min_size=1, max_size=200))
def test_mirror_invariant_under_random_binds(operations):
    """Property: forward and reverse maps stay exact mirrors."""
    table = PageMappingTable()
    used_ppns = {}
    for lpn, ppn in operations:
        holder = table.reverse_lookup(ppn)
        if holder is not None and holder != lpn:
            with pytest.raises(MappingError):
                table.bind(lpn, ppn)
        else:
            table.bind(lpn, ppn)
        table.check_consistency()


@given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
def test_sequential_moves_preserve_lpn_set(lpns):
    table = PageMappingTable()
    next_ppn = 0
    for lpn in set(lpns):
        table.bind(lpn, next_ppn)
        next_ppn += 1
    original = {lpn: table.lookup(lpn) for lpn in set(lpns)}
    for lpn, ppn in original.items():
        table.move(ppn, next_ppn)
        next_ppn += 1
    for lpn in original:
        assert table.lookup(lpn) is not None
    table.check_consistency()


def test_bind_run_maps_consecutive_lpns():
    table = PageMappingTable()
    table.bind_run(0, [40, 7, 12])
    table.bind_run(3, [])
    table.bind_run(3, [8])
    assert [table.lookup(lpn) for lpn in range(4)] == [40, 7, 12, 8]
    assert table.reverse_lookup(12) == 2
    assert table.state_dict()["forward"] == [[0, 40], [1, 7], [2, 12],
                                             [3, 8]]
    table.check_consistency()


def test_bind_run_equals_binds_in_lpn_order():
    bulk, single = PageMappingTable(), PageMappingTable()
    ppns = [9, 3, 100, 4, 55]
    bulk.bind_run(10, ppns)
    for lpn, ppn in enumerate(ppns, start=10):
        single.bind(lpn, ppn)
    assert list(bulk._forward.items()) == list(single._forward.items())
    assert list(bulk._reverse.items()) == list(single._reverse.items())


@pytest.mark.parametrize("first_lpn,ppns", [
    (1, [200, 201]),     # lpn 1 already bound
    (5, [201, 100]),     # ppn 100 already holds lpn 1
    (5, [300, 301, 300]),  # ppn repeats within the run
])
def test_bind_run_is_write_once(first_lpn, ppns):
    table = PageMappingTable()
    table.bind(1, 100)
    with pytest.raises(MappingError):
        table.bind_run(first_lpn, ppns)
    # A rejected run leaves the table as it was.
    assert table.state_dict() == {"forward": [[1, 100]]}
    table.check_consistency()
