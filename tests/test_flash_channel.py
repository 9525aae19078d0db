"""Unit tests for the flash bus channel model."""

import pytest

from repro.errors import ConfigError
from repro.flash import FlashChannel
from repro.sim import Simulator


def test_transfer_includes_command_overhead():
    sim = Simulator()
    channel = FlashChannel(sim, 0, bandwidth=1000.0, cmd_overhead_us=0.2)
    done = []

    def mover(sim):
        yield from channel.transfer(4096)
        done.append(sim.now)

    sim.process(mover(sim))
    sim.run()
    assert done[0] == pytest.approx(4.096 + 0.2, abs=1e-3)


def test_occupancy_formula():
    sim = Simulator()
    channel = FlashChannel(sim, 0, bandwidth=1000.0, cmd_overhead_us=0.5)
    assert channel.occupancy(1000) == pytest.approx(1.5)


def test_channel_serializes_ways():
    """Two ways sharing the channel bus transfer one after the other."""
    sim = Simulator()
    channel = FlashChannel(sim, 0, bandwidth=1000.0, cmd_overhead_us=0.0)
    finish = []

    def mover(sim, tag):
        wait = yield from channel.transfer(1000)
        finish.append((tag, sim.now, wait))

    sim.process(mover(sim, "a"))
    sim.process(mover(sim, "b"))
    sim.run()
    assert finish[0][1] == pytest.approx(1.0)
    assert finish[1][1] == pytest.approx(2.0)
    assert finish[1][2] == pytest.approx(1.0)  # waited behind "a"


def test_utilization():
    sim = Simulator()
    channel = FlashChannel(sim, 0, bandwidth=100.0, cmd_overhead_us=0.0)

    def mover(sim):
        yield from channel.transfer(500)  # 5 us busy
        yield sim.timeout(5.0)            # 5 us idle

    sim.process(mover(sim))
    sim.run()
    assert channel.utilization() == pytest.approx(0.5)


def test_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ConfigError):
        FlashChannel(sim, 0, bandwidth=0.0)
    with pytest.raises(ConfigError):
        FlashChannel(sim, 0, bandwidth=10.0, cmd_overhead_us=-1.0)


def test_gc_traffic_class_accounted_separately():
    sim = Simulator()
    channel = FlashChannel(sim, 0, bandwidth=1000.0, cmd_overhead_us=0.0)

    def mover(sim):
        yield from channel.transfer(1000, traffic_class="gc")
        yield from channel.transfer(2000, traffic_class="io")

    sim.process(mover(sim))
    sim.run()
    assert channel.link.busy_time["gc"] == 1000 / channel.bandwidth
    assert channel.link.busy_time["io"] == 2000 / channel.bandwidth
