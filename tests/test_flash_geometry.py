"""Unit and property tests for flash geometry and addressing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.flash import FlashGeometry, PhysAddr

SMALL = FlashGeometry(channels=4, ways=2, dies=2, planes=2,
                      blocks_per_plane=8, pages_per_block=16, page_size=4096)


def test_derived_sizes():
    geom = SMALL
    assert geom.dies_total == 4 * 2 * 2
    assert geom.planes_total == geom.dies_total * 2
    assert geom.blocks_total == geom.planes_total * 8
    assert geom.pages_total == geom.blocks_total * 16
    assert geom.capacity_bytes == geom.pages_total * 4096
    assert geom.block_size == 16 * 4096


def test_default_geometry_matches_paper_table1():
    geom = FlashGeometry()
    assert geom.channels == 8
    assert geom.ways == 8
    assert geom.dies == 1
    assert geom.planes == 8
    assert geom.blocks_per_plane == 1384
    assert geom.pages_per_block == 384
    assert geom.page_size == 4096


def test_ppn_roundtrip_exhaustive_small():
    geom = FlashGeometry(channels=2, ways=2, dies=1, planes=2,
                         blocks_per_plane=2, pages_per_block=2)
    seen = set()
    for ppn in range(geom.pages_total):
        addr = geom.addr_of(ppn)
        assert geom.ppn_of(addr) == ppn
        assert addr not in seen
        seen.add(addr)
    assert len(seen) == geom.pages_total


addr_strategy = st.builds(
    PhysAddr,
    channel=st.integers(0, SMALL.channels - 1),
    way=st.integers(0, SMALL.ways - 1),
    die=st.integers(0, SMALL.dies - 1),
    plane=st.integers(0, SMALL.planes - 1),
    block=st.integers(0, SMALL.blocks_per_plane - 1),
    page=st.integers(0, SMALL.pages_per_block - 1),
)


@given(addr_strategy)
def test_ppn_roundtrip_property(addr):
    assert SMALL.addr_of(SMALL.ppn_of(addr)) == addr


@given(addr_strategy, addr_strategy)
def test_ppn_is_injective(a, b):
    if a != b:
        assert SMALL.ppn_of(a) != SMALL.ppn_of(b)


@given(addr_strategy)
def test_block_index_roundtrip(addr):
    index = SMALL.block_index(addr)
    back = SMALL.block_addr_of(index)
    assert back.page == 0
    assert back.block_addr() == addr.block_addr()


@given(addr_strategy)
def test_plane_and_die_index_consistency(addr):
    plane = SMALL.plane_index(addr)
    die = SMALL.die_index(addr)
    assert plane // SMALL.planes == die
    assert 0 <= plane < SMALL.planes_total
    assert 0 <= die < SMALL.dies_total


def test_validate_rejects_out_of_range():
    with pytest.raises(AddressError):
        SMALL.validate(PhysAddr(SMALL.channels, 0, 0, 0, 0, 0))
    with pytest.raises(AddressError):
        SMALL.validate(PhysAddr(0, 0, 0, 0, 0, -1))
    with pytest.raises(AddressError):
        SMALL.ppn_of(PhysAddr(0, 0, 0, 0, SMALL.blocks_per_plane, 0))


def test_addr_of_rejects_out_of_range():
    with pytest.raises(AddressError):
        SMALL.addr_of(-1)
    with pytest.raises(AddressError):
        SMALL.addr_of(SMALL.pages_total)


def test_block_addr_of_rejects_out_of_range():
    with pytest.raises(AddressError):
        SMALL.block_addr_of(SMALL.blocks_total)


def test_invalid_geometry_rejected():
    with pytest.raises(AddressError):
        FlashGeometry(channels=0)
    with pytest.raises(AddressError):
        FlashGeometry(pages_per_block=0)


def test_iter_dies_covers_all_dies():
    dies = list(SMALL.iter_dies())
    assert len(dies) == SMALL.dies_total
    indexes = {SMALL.die_index(addr) for addr in dies}
    assert indexes == set(range(SMALL.dies_total))


def test_iter_planes_of_die():
    die_addr = PhysAddr(1, 0, 1, 0, 0, 0)
    planes = list(SMALL.iter_planes_of_die(die_addr))
    assert len(planes) == SMALL.planes
    assert {p.plane for p in planes} == set(range(SMALL.planes))
    assert all(p.channel == 1 and p.die == 1 for p in planes)


def test_describe_mentions_capacity():
    text = SMALL.describe()
    assert "4ch" in text and "GiB" in text


_FIELD_NAMES = ("channels", "ways", "dies", "planes", "blocks_per_plane",
                "pages_per_block", "page_size")


def _named_geometries():
    from repro.core.config import (paper_geometry, sim_geometry,
                                   superblock_geometry)

    return {
        "sim": sim_geometry(),
        "paper": paper_geometry(),
        "superblock": superblock_geometry(),
        "unit": FlashGeometry(channels=1, ways=1, dies=1, planes=1,
                              blocks_per_plane=1, pages_per_block=1),
    }


@pytest.mark.parametrize("name", ["sim", "paper", "superblock", "unit"])
def test_totals_equal_field_products(name):
    geom = _named_geometries()[name]
    dies = geom.channels * geom.ways * geom.dies
    assert geom.dies_total == dies
    assert geom.planes_total == dies * geom.planes
    assert geom.blocks_total == dies * geom.planes * geom.blocks_per_plane
    assert geom.pages_total == geom.blocks_total * geom.pages_per_block
    assert geom.pages_per_plane \
        == geom.blocks_per_plane * geom.pages_per_block
    assert geom.capacity_bytes == geom.pages_total * geom.page_size
    # The last page and block round-trip; one past them is rejected.
    assert geom.ppn_of(geom.addr_of(geom.pages_total - 1)) \
        == geom.pages_total - 1
    assert geom.block_index(geom.block_addr_of(geom.blocks_total - 1)) \
        == geom.blocks_total - 1
    with pytest.raises(AddressError):
        geom.addr_of(geom.pages_total)


def test_dataclass_surface_is_the_seven_fields():
    import dataclasses

    geom = SMALL
    assert tuple(f.name for f in dataclasses.fields(geom)) == _FIELD_NAMES
    assert dataclasses.asdict(geom) == {
        "channels": 4, "ways": 2, "dies": 2, "planes": 2,
        "blocks_per_plane": 8, "pages_per_block": 16, "page_size": 4096}
    assert repr(geom) == (
        "FlashGeometry(channels=4, ways=2, dies=2, planes=2, "
        "blocks_per_plane=8, pages_per_block=16, page_size=4096)")
    twin = FlashGeometry(**dataclasses.asdict(geom))
    assert twin == geom and twin is not geom
    assert hash(twin) == hash(geom) \
        == hash(tuple(getattr(geom, name) for name in _FIELD_NAMES))
    assert geom != dataclasses.replace(geom, channels=8)
    wider = dataclasses.replace(geom, channels=8)
    assert wider.pages_total == 2 * geom.pages_total
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.channels = 1


def test_geometry_pickles_with_its_totals():
    import pickle

    clone = pickle.loads(pickle.dumps(SMALL))
    assert clone == SMALL
    assert clone.pages_total == SMALL.pages_total
    assert clone.blocks_total == SMALL.blocks_total


def test_range_error_text():
    with pytest.raises(AddressError) as excinfo:
        SMALL.addr_of(SMALL.pages_total)
    assert str(excinfo.value) == "ppn 4096 out of range [0, 4096)"
    with pytest.raises(AddressError) as excinfo:
        SMALL.addr_of(-1)
    assert str(excinfo.value) == "ppn -1 out of range [0, 4096)"
    with pytest.raises(AddressError) as excinfo:
        SMALL.block_addr_of(SMALL.blocks_total)
    assert str(excinfo.value) == "block index 256 out of range [0, 256)"
