"""Unit and property tests for the page mapping table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.ftl import PageMappingTable

#: Table length for the unit tests: every index they use is below it.
SIZE = 512


def test_bind_and_lookup():
    table = PageMappingTable(SIZE)
    assert table.lookup(5) is None
    table.bind(5, 100)
    assert table.lookup(5) == 100
    assert table.reverse_lookup(100) == 5
    assert len(table) == 1


def test_rebind_invalidates_old_ppn():
    table = PageMappingTable(SIZE)
    table.bind(5, 100)
    old = table.bind(5, 200)
    assert old == 100
    assert table.reverse_lookup(100) is None
    assert table.lookup(5) == 200


def test_bind_to_occupied_ppn_rejected():
    table = PageMappingTable(SIZE)
    table.bind(1, 100)
    with pytest.raises(MappingError):
        table.bind(2, 100)


def test_rebind_same_pair_is_noop_like():
    table = PageMappingTable(SIZE)
    table.bind(1, 100)
    old = table.bind(1, 100)
    assert old == 100
    assert table.lookup(1) == 100
    table.check_consistency()


def test_move_rebinds_lpn():
    table = PageMappingTable(SIZE)
    table.bind(7, 100)
    lpn = table.move(100, 300)
    assert lpn == 7
    assert table.lookup(7) == 300
    assert table.reverse_lookup(100) is None
    table.check_consistency()


def test_move_from_invalid_ppn_rejected():
    table = PageMappingTable(SIZE)
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_move_to_occupied_ppn_rejected():
    table = PageMappingTable(SIZE)
    table.bind(1, 100)
    table.bind(2, 200)
    with pytest.raises(MappingError):
        table.move(100, 200)


def test_unbind():
    table = PageMappingTable(SIZE)
    table.bind(1, 100)
    assert table.unbind(1) == 100
    assert table.lookup(1) is None
    assert table.reverse_lookup(100) is None
    assert table.unbind(99) is None


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100)),
                min_size=1, max_size=200))
def test_mirror_invariant_under_random_binds(operations):
    """Property: forward and reverse maps stay exact mirrors."""
    table = PageMappingTable(SIZE)
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
    table = PageMappingTable(SIZE)
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
    table = PageMappingTable(SIZE)
    table.bind_run(0, [40, 7, 12])
    table.bind_run(3, [])
    table.bind_run(3, [8])
    assert [table.lookup(lpn) for lpn in range(4)] == [40, 7, 12, 8]
    assert table.reverse_lookup(12) == 2
    assert table.state_dict()["forward"] == [[0, 40], [1, 7], [2, 12],
                                             [3, 8]]
    table.check_consistency()


def test_bind_run_equals_binds_in_lpn_order():
    bulk, single = PageMappingTable(SIZE), PageMappingTable(SIZE)
    ppns = [9, 3, 100, 4, 55]
    bulk.bind_run(10, ppns)
    for lpn, ppn in enumerate(ppns, start=10):
        single.bind(lpn, ppn)
    assert list(bulk.items()) == list(single.items())
    assert [bulk.reverse_lookup(ppn) for ppn in range(SIZE)] \
        == [single.reverse_lookup(ppn) for ppn in range(SIZE)]


@pytest.mark.parametrize("first_lpn,ppns", [
    (1, [200, 201]),     # lpn 1 already bound
    (5, [201, 100]),     # ppn 100 already holds lpn 1
    (5, [300, 301, 300]),  # ppn repeats within the run
])
def test_bind_run_is_write_once(first_lpn, ppns):
    table = PageMappingTable(SIZE)
    table.bind(1, 100)
    with pytest.raises(MappingError):
        table.bind_run(first_lpn, ppns)
    # A rejected run leaves the table as it was.
    assert table.state_dict() == {"forward": [[1, 100]]}
    table.check_consistency()


def test_len_counts_mapped_lpns():
    table = PageMappingTable(SIZE)
    table.bind_run(0, [10, 11, 12])
    table.bind(3, 13)
    table.bind(3, 14)          # a rebind maps no new lpn
    table.move(14, 15)
    assert len(table) == 4
    table.unbind(0)
    table.unbind(0)
    assert len(table) == 3
    table.check_consistency()


def test_items_ascend_by_lpn():
    table = PageMappingTable(SIZE)
    for lpn, ppn in [(9, 1), (2, 7), (400, 3), (0, 511)]:
        table.bind(lpn, ppn)
    assert list(table.items()) == [(0, 511), (2, 7), (9, 1), (400, 3)]


def test_tables_are_two_dense_int_buffers():
    assert PageMappingTable(SIZE).nbytes == 2 * 4 * SIZE


@pytest.mark.parametrize("call", [
    lambda t: t.lookup(-1),
    lambda t: t.lookup(SIZE),
    lambda t: t.reverse_lookup(-SIZE),
    lambda t: t.reverse_lookup(SIZE),
    lambda t: t.bind(-1, 0),
    lambda t: t.bind(0, SIZE),
    lambda t: t.bind_run(SIZE - 1, [0, 1]),
    lambda t: t.bind_run(0, [0, -1]),
    lambda t: t.unbind(-1),
    lambda t: t.move(SIZE - 1, -1),
    lambda t: t.move(SIZE - 1, SIZE),
], ids=["lookup-neg", "lookup-end", "reverse-neg", "reverse-end",
        "bind-lpn", "bind-ppn", "bind_run-lpn", "bind_run-ppn",
        "unbind-neg", "move-neg", "move-end"])
def test_index_out_of_range_is_rejected(call):
    table = PageMappingTable(SIZE)
    # A negative index must not wrap round onto these last slots.
    table.bind(SIZE - 1, SIZE - 1)
    with pytest.raises(MappingError, match="out of range"):
        call(table)
    assert table.state_dict() == {"forward": [[SIZE - 1, SIZE - 1]]}
    table.check_consistency()


@pytest.mark.parametrize("pairs,match", [
    ([[1, 100], [1, 200]], "repeats lpn 1"),
    ([[1, 100], [2, 100]], "repeats ppn 100"),
    ([[-5, 100]], "lpn -5 out of range"),
    ([[5, -100]], "ppn -100 out of range"),
    ([[SIZE, 100]], f"lpn {SIZE} out of range"),
    ([[5, SIZE]], f"ppn {SIZE} out of range"),
], ids=["repeated-lpn", "repeated-ppn", "negative-lpn", "negative-ppn",
        "lpn-past-end", "ppn-past-end"])
def test_load_state_rejects_corrupt_checkpoints(pairs, match):
    table = PageMappingTable(SIZE)
    table.bind(7, 70)
    with pytest.raises(MappingError, match=match):
        table.load_state({"forward": pairs})
    # A rejected checkpoint leaves the table as it was.
    assert table.state_dict() == {"forward": [[7, 70]]}
    assert len(table) == 1
    table.check_consistency()


def test_load_state_round_trips():
    table = PageMappingTable(SIZE)
    table.bind_run(3, [30, 31, 2])
    restored = PageMappingTable(SIZE)
    restored.bind(0, 0)
    restored.load_state(table.state_dict())
    assert restored.state_dict() == table.state_dict()
    assert len(restored) == 3
    assert restored.reverse_lookup(0) is None
    restored.check_consistency()


# -- differential property test against a dict reference ---------------------

#: A table small enough that random operations collide often.
MODEL_SIZE = 8


class DictMapping:
    """Dict-backed reference: the table before it moved to arrays.

    It keeps the dict version's semantics and messages, plus the range
    checks the dense table added, made in the same order.
    """

    def __init__(self, pages):
        self.pages = pages
        self.forward = {}
        self.reverse = {}

    def _check(self, *named):
        for kind, index in named:
            if not 0 <= index < self.pages:
                raise MappingError(f"{kind} {index} out of range "
                                   f"[0, {self.pages})")

    def __len__(self):
        return len(self.forward)

    def lookup(self, lpn):
        self._check(("lpn", lpn))
        return self.forward.get(lpn)

    def reverse_lookup(self, ppn):
        self._check(("ppn", ppn))
        return self.reverse.get(ppn)

    def bind(self, lpn, ppn):
        self._check(("lpn", lpn), ("ppn", ppn))
        existing_lpn = self.reverse.get(ppn)
        if existing_lpn is not None and existing_lpn != lpn:
            raise MappingError(f"ppn {ppn} already holds lpn {existing_lpn}")
        old_ppn = self.forward.get(lpn)
        if old_ppn is not None:
            del self.reverse[old_ppn]
        self.forward[lpn] = ppn
        self.reverse[ppn] = lpn
        return old_ppn

    def bind_run(self, first_lpn, ppns):
        if not ppns:
            return None
        end_lpn = first_lpn + len(ppns)
        self._check(("lpn", first_lpn), ("lpn", end_lpn - 1),
                    ("ppn", min(ppns)), ("ppn", max(ppns)))
        lpns = list(range(first_lpn, end_lpn))
        if not self.forward.keys().isdisjoint(lpns):
            raise MappingError(f"bind_run over a bound lpn in "
                               f"[{first_lpn}, {end_lpn})")
        if not self.reverse.keys().isdisjoint(ppns):
            raise MappingError("bind_run onto a ppn that holds an lpn")
        if len(set(ppns)) != len(ppns):
            raise MappingError("bind_run maps two lpns to one ppn")
        self.forward.update(zip(lpns, ppns))
        self.reverse.update(zip(ppns, lpns))
        return None

    def unbind(self, lpn):
        self._check(("lpn", lpn))
        ppn = self.forward.pop(lpn, None)
        if ppn is not None:
            del self.reverse[ppn]
        return ppn

    def move(self, old_ppn, new_ppn):
        self._check(("ppn", old_ppn), ("ppn", new_ppn))
        lpn = self.reverse.get(old_ppn)
        if lpn is None:
            raise MappingError(f"move from invalid ppn {old_ppn}")
        if new_ppn in self.reverse:
            raise MappingError(f"move to occupied ppn {new_ppn}")
        del self.reverse[old_ppn]
        self.forward[lpn] = new_ppn
        self.reverse[new_ppn] = lpn
        return lpn

    def state_dict(self):
        return {"forward": [[lpn, ppn]
                            for lpn, ppn in sorted(self.forward.items())]}


# Mostly in range (80%); otherwise just outside it, or far enough below
# zero to wrap onto slot 0 if a negative index slipped through.
_index = st.integers(-2, MODEL_SIZE + 1).map(
    lambda index: -MODEL_SIZE if index == -2 else index)
_operation = st.one_of(
    st.tuples(st.just("bind"), _index, _index),
    st.tuples(st.just("bind_run"), _index, st.lists(_index, max_size=5)),
    st.tuples(st.just("move"), _index, _index),
    st.tuples(st.just("unbind"), _index),
    st.tuples(st.just("lookup"), _index),
    st.tuples(st.just("reverse_lookup"), _index),
)


def _outcome(target, name, args):
    try:
        return "ok", getattr(target, name)(*args)
    except MappingError as exc:
        return "error", str(exc)


@settings(max_examples=300)
@given(st.lists(_operation, min_size=20, max_size=60))
def test_dense_table_matches_dict_reference(operations):
    table = PageMappingTable(MODEL_SIZE)
    model = DictMapping(MODEL_SIZE)
    for name, *args in operations:
        assert _outcome(table, name, args) == _outcome(model, name, args)
        assert len(table) == len(model)
        assert table.state_dict() == model.state_dict()
        table.check_consistency()
