"""Unit tests for the flash die/plane model and programming discipline."""

import pytest

from repro.errors import AddressError, FlashError
from repro.flash import (
    FlashBackend,
    FlashGeometry,
    FlashTiming,
    PhysAddr,
    TLC_TIMING,
    ULL_TIMING,
)
from repro.flash.pagemask import mask_of, offsets_of
from repro.sim import Simulator

GEOM = FlashGeometry(channels=2, ways=2, dies=1, planes=2,
                     blocks_per_plane=4, pages_per_block=8)


def make_backend(sim, **kwargs):
    return FlashBackend(sim, GEOM, ULL_TIMING, **kwargs)


def array_op(prepare, addr):
    """Generator: one array op as a flash controller runs it.

    *prepare* is a backend ``prepare_*`` method; the op then holds the
    plane it names.  Returns ``(plane wait, array time)``.
    """
    plane, duration = prepare(addr)
    wait = yield from plane.hold(duration)
    return wait, duration


def run_op(backend, prepare, addr):
    """Drive one array op to completion; return ``(wait, array time)``."""
    proc = backend.sim.process(array_op(prepare, addr))
    backend.sim.run()
    return proc.value


def test_program_then_read_timing():
    sim = Simulator()
    backend = make_backend(sim)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    _wait, array_time = run_op(backend, backend.prepare_program, addr)
    assert array_time == pytest.approx(50.0)
    assert sim.now == pytest.approx(50.0)
    _wait, array_time = run_op(backend, backend.prepare_read, addr)
    assert array_time == pytest.approx(5.0)
    assert sim.now == pytest.approx(55.0)


def test_read_unwritten_page_rejected():
    sim = Simulator()
    backend = make_backend(sim)
    with pytest.raises(FlashError):
        run_op(backend, backend.prepare_read, PhysAddr(0, 0, 0, 0, 0, 0))


def test_out_of_order_program_allowed_but_tracked():
    """Out-of-order arrival is tolerated (the FTL allocates in order);
    each distinct page is programmable exactly once."""
    sim = Simulator()
    backend = make_backend(sim)
    run_op(backend, backend.prepare_program, PhysAddr(0, 0, 0, 0, 0, 2))
    run_op(backend, backend.prepare_program, PhysAddr(0, 0, 0, 0, 0, 0))
    state = backend.block_state(PhysAddr(0, 0, 0, 0, 0, 0))
    assert state.write_ptr == 2
    assert state.programmed == {0, 2}


def test_reprogram_without_erase_rejected():
    sim = Simulator()
    backend = make_backend(sim)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    run_op(backend, backend.prepare_program, addr)
    with pytest.raises(FlashError):
        run_op(backend, backend.prepare_program, addr)


def test_sequential_program_allowed():
    sim = Simulator()
    backend = make_backend(sim)
    for page in range(GEOM.pages_per_block):
        run_op(backend, backend.prepare_program,
               PhysAddr(0, 0, 0, 0, 1, page))
    state = backend.block_state(PhysAddr(0, 0, 0, 0, 1, 0))
    assert state.write_ptr == GEOM.pages_per_block


def test_erase_resets_write_pointer_and_counts():
    sim = Simulator()
    backend = make_backend(sim)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    run_op(backend, backend.prepare_program, addr)
    run_op(backend, backend.prepare_erase, addr)
    assert backend.erase_count(addr) == 1
    state = backend.block_state(addr)
    assert state.write_ptr == 0
    # Reprogramming page 0 is legal again after erase.
    run_op(backend, backend.prepare_program, addr)


def test_prepare_erase_updates_state_before_the_plane_is_held():
    sim = Simulator()
    backend = make_backend(sim)
    addr = PhysAddr(0, 1, 0, 1, 2, 0)
    backend.mark_programmed([GEOM.block_index(addr)])
    plane, duration = backend.prepare_erase(addr)
    assert plane is backend.planes[GEOM.plane_index(addr)]
    assert duration == ULL_TIMING.erase_us
    assert backend.erase_count(addr) == 1
    assert backend.block_state(addr).write_ptr == 0
    assert sim.now == 0.0 and plane.in_use == 0


def test_plane_contention_serializes():
    sim = Simulator()
    backend = make_backend(sim)
    addr0 = PhysAddr(0, 0, 0, 0, 0, 0)
    addr1 = PhysAddr(0, 0, 0, 0, 0, 1)
    done = []

    def writer(sim, addr):
        wait, _array_time = yield from array_op(backend.prepare_program,
                                                addr)
        done.append((sim.now, wait))

    sim.process(writer(sim, addr0))
    sim.process(writer(sim, addr1))
    sim.run()
    assert done[0] == (pytest.approx(50.0), pytest.approx(0.0))
    assert done[1] == (pytest.approx(100.0), pytest.approx(50.0))


def test_different_planes_run_in_parallel():
    sim = Simulator()
    backend = make_backend(sim)
    done = []

    def writer(sim, addr):
        yield from array_op(backend.prepare_program, addr)
        done.append(sim.now)

    sim.process(writer(sim, PhysAddr(0, 0, 0, 0, 0, 0)))
    sim.process(writer(sim, PhysAddr(0, 0, 0, 1, 0, 0)))
    sim.run()
    assert done == [pytest.approx(50.0), pytest.approx(50.0)]


def _assert_fully_programmed(backend, addr):
    state = backend.block_state(addr)
    assert state.write_ptr == GEOM.pages_per_block
    assert state.programmed == set(range(GEOM.pages_per_block))
    for page in range(GEOM.pages_per_block):
        backend.prepare_read(addr._replace(page=page))
    with pytest.raises(FlashError, match="reprogram"):
        backend.prepare_program(addr)


def test_prefilled_blocks_share_no_page_state():
    """Erasing or reprogramming one pre-conditioned block leaves every
    other pre-conditioned block fully programmed."""
    sim = Simulator()
    backend = make_backend(sim)
    first = PhysAddr(0, 0, 0, 0, 0, 0)
    second = PhysAddr(1, 1, 0, 1, 3, 0)
    backend.mark_programmed([GEOM.block_index(first),
                             GEOM.block_index(second)])
    run_op(backend, backend.prepare_erase, first)
    assert backend.block_state(first).write_ptr == 0
    _assert_fully_programmed(backend, second)
    run_op(backend, backend.prepare_program, first._replace(page=5))
    assert backend.block_state(first).programmed == {5}
    _assert_fully_programmed(backend, second)
    backend.mark_programmed([GEOM.block_index(first)])
    _assert_fully_programmed(backend, first)


@pytest.mark.parametrize("blocks", [[0, GEOM.blocks_total], [-1, 1]])
def test_mark_programmed_checks_every_index_first(blocks):
    backend = make_backend(Simulator())
    with pytest.raises(AddressError):
        backend.mark_programmed(blocks)
    assert not backend._blocks


def test_programmed_is_a_read_only_view():
    backend = make_backend(Simulator())
    state = backend.block_state(PhysAddr(0, 0, 0, 0, 0, 0))
    state.programmed = [3, 1]
    assert state.mask == 0b1010 and state.write_ptr == 2
    with pytest.raises(AttributeError):
        state.programmed.add(4)
    with pytest.raises(AttributeError):
        state.programmed.clear()
    assert state.programmed == {1, 3}


@pytest.mark.parametrize("offsets", [[], [0], [5, 0, 2], [383, 7, 64, 0]])
def test_page_masks_round_trip(offsets):
    mask = mask_of(offsets)
    assert offsets_of(mask) == sorted(offsets)
    assert mask.bit_count() == len(offsets)
    assert mask_of(offsets + offsets) == mask


def test_page_mask_rejects_negative_offsets():
    with pytest.raises(ValueError):
        mask_of([1, -1])


def test_tlc_timing_sampling_within_range():
    sim = Simulator()
    backend = FlashBackend(sim, GEOM, TLC_TIMING, deterministic_timing=False,
                           seed=7)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    _wait, array_time = run_op(backend, backend.prepare_program, addr)
    low, high = TLC_TIMING.program_us
    assert low <= array_time <= high


def test_plane_utilization_accounting():
    sim = Simulator()
    backend = make_backend(sim)
    addr = PhysAddr(0, 0, 0, 0, 0, 0)
    run_op(backend, backend.prepare_program, addr)

    def idle(sim):
        yield sim.timeout(50.0)

    sim.process(idle(sim))
    sim.run()
    plane = backend.planes[GEOM.plane_index(addr)]
    assert plane.utilization() == pytest.approx(0.5)
    assert backend.mean_plane_utilization() > 0.0


def test_timing_presets_match_paper():
    assert ULL_TIMING.read_mid == 5.0
    assert ULL_TIMING.program_mid == 50.0
    assert ULL_TIMING.erase_us == 1000.0
    assert ULL_TIMING.page_size == 4096
    assert TLC_TIMING.read_us == (60.0, 95.0)
    assert TLC_TIMING.program_us == (200.0, 500.0)
    assert TLC_TIMING.erase_us == 2000.0
    assert TLC_TIMING.page_size == 16384


def test_invalid_timing_rejected():
    with pytest.raises(Exception):
        FlashTiming("bad", read_us=(0.0, 5.0), program_us=(1.0, 2.0),
                    erase_us=10.0, page_size=4096)
    with pytest.raises(Exception):
        FlashTiming("bad", read_us=(5.0, 5.0), program_us=(1.0, 2.0),
                    erase_us=-1.0, page_size=4096)
