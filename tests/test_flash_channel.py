"""Unit tests for a flash controller's channel bus.

Each :class:`FlashController` owns one half-duplex flash bus shared by
every way on its channel; a page transfer costs the page plus the
command/address overhead.  The tests drive ``program_page`` (bus, then
array) and read the bus meters and the ``flash_bus`` breakdown.
"""

import pytest

from repro.controller import FlashController
from repro.errors import ConfigError
from repro.flash import FlashBackend, FlashGeometry, PhysAddr, ULL_TIMING
from repro.sim import Simulator

GEOM = FlashGeometry(channels=1, ways=4, dies=1, planes=1,
                     blocks_per_plane=2, pages_per_block=4)
PAGE = ULL_TIMING.page_size


def make_controller(bandwidth=1000.0, cmd_overhead_us=0.0):
    sim = Simulator()
    backend = FlashBackend(sim, GEOM, ULL_TIMING)
    return sim, FlashController(sim, 0, backend, bandwidth,
                                cmd_overhead_us=cmd_overhead_us)


def program(controller, way, finish, tag=None, traffic_class="io"):
    """Generator: program page 0 of *way*; log its bus wait + transfer."""
    breakdown = yield from controller.program_page(
        PhysAddr(0, way, 0, 0, 0, 0), traffic_class)
    finish.append((tag, breakdown.as_dict()["flash_bus"]))


def test_transfer_includes_command_overhead():
    sim, controller = make_controller(cmd_overhead_us=0.2)
    finish = []
    sim.process(program(controller, 0, finish))
    sim.run()
    assert finish[0][1] == pytest.approx(4.096 + 0.2, abs=1e-3)
    assert controller.flash_bus.busy_time["io"] == pytest.approx(4.296)


def test_occupancy_formula():
    """Bus service per page = command overhead + page / bandwidth."""
    sim, controller = make_controller(cmd_overhead_us=0.5)
    sim.process(program(controller, 0, []))
    sim.run()
    assert controller.flash_bus.busy_time["io"] == pytest.approx(
        0.5 + PAGE / 1000.0)


def test_channel_serializes_ways():
    """Ways sharing the channel bus transfer one after the other, and a
    read's transfer out queues behind a program's transfer in."""
    sim, controller = make_controller()
    finish = []
    sim.process(program(controller, 0, finish, "a"))
    sim.process(program(controller, 1, finish, "b"))
    sim.run()
    service = PAGE / 1000.0
    assert finish == [("a", pytest.approx(service)),
                      ("b", pytest.approx(2 * service))]  # waited on "a"

    sim, controller = make_controller()
    controller.backend.mark_programmed([0])
    read = sim.process(controller.read_page(PhysAddr(0, 0, 0, 0, 0, 0)))

    def program_during_the_array_read(sim):
        yield sim.timeout(ULL_TIMING.read_mid - 1.0)
        yield from controller.program_page(PhysAddr(0, 1, 0, 0, 0, 0))

    sim.process(program_during_the_array_read(sim))
    sim.run()
    # The read's transfer out waits out the last (service - 1) us of the
    # program's transfer in, then takes its own service time.
    assert read.value.as_dict()["flash_bus"] == pytest.approx(
        (service - 1.0) + service)


def test_utilization():
    sim, controller = make_controller(bandwidth=PAGE / 5.0)

    def mover(sim):
        yield from controller.program_page(PhysAddr(0, 0, 0, 0, 0, 0))
        yield sim.timeout(5.0)

    sim.process(mover(sim))
    sim.run()
    # 5 us on the bus over 5 + 50 (program) + 5 (idle) us.
    assert controller.flash_bus.utilization() == pytest.approx(5.0 / 60.0)


def test_invalid_parameters():
    sim = Simulator()
    backend = FlashBackend(sim, GEOM, ULL_TIMING)
    with pytest.raises(ConfigError):
        FlashController(sim, 0, backend, bandwidth=0.0)
    with pytest.raises(ConfigError):
        FlashController(sim, 0, backend, bandwidth=10.0,
                        cmd_overhead_us=-1.0)


def test_gc_traffic_class_accounted_separately():
    sim, controller = make_controller()
    finish = []
    sim.process(program(controller, 0, finish, traffic_class="gc"))
    sim.process(program(controller, 1, finish, traffic_class="io"))
    sim.process(program(controller, 2, finish, traffic_class="io"))
    sim.run()
    assert controller.flash_bus.busy_time["gc"] == PAGE / 1000.0
    assert controller.flash_bus.busy_time["io"] == 2 * PAGE / 1000.0


def test_gc_transfers_go_first_by_default():
    """With no explicit priority, a queued ``gc`` transfer is served
    ahead of ``io`` transfers queued before it."""
    sim, controller = make_controller()
    finish = []
    sim.process(program(controller, 0, finish, "first"))
    sim.process(program(controller, 1, finish, "io"))
    sim.process(program(controller, 2, finish, "gc", traffic_class="gc"))
    sim.run()
    service = PAGE / 1000.0
    assert dict(finish) == {"first": pytest.approx(service),
                            "gc": pytest.approx(2 * service),
                            "io": pytest.approx(3 * service)}
