"""Unit tests for front-end components: bus, DRAM, ECC, host, breakdown."""

import pytest

from repro.controller import (
    Breakdown,
    COMPONENTS,
    Dram,
    EccEngine,
    HostInterface,
)
from repro.core import build_ssd
from repro.errors import ConfigError
from repro.sim import Link, Simulator


def drive(sim, gen):
    proc = sim.process(gen)
    sim.run()
    return proc.value


# ---------------------------------------------------------------- system bus
# The system bus is a plain Link that also keeps a per-class byte
# timeline (its bin_width).


def test_bus_transfer_and_utilization():
    sim = Simulator()
    bus = Link(sim, 8000.0, name="system_bus", bin_width=1000.0)

    def mover(sim):
        yield bus.transfer(4096, "io")
        yield bus.transfer(4096, "gc")
        yield sim.timeout(2.0)

    sim.process(mover(sim))
    sim.run()
    expected_each = 4096 / 8000.0
    assert bus.busy_time == {"io": expected_each, "gc": expected_each}
    assert bus.utilization() == pytest.approx(2 * expected_each / sim.now)


def test_bus_rejects_bad_bandwidth():
    with pytest.raises(ConfigError):
        build_ssd("baseline", base_system_bus_bw=-1.0)
    with pytest.raises(ValueError):
        Link(Simulator(), -1.0, name="system_bus", bin_width=1000.0)


def test_bus_timeline_split_by_class():
    sim = Simulator()
    bus = Link(sim, 1000.0, name="system_bus", bin_width=10.0)

    def mover(sim):
        yield bus.transfer(1000, "io")
        yield bus.transfer(2000, "gc")

    sim.process(mover(sim))
    sim.run()
    _times, io_rates = bus.bandwidth_timeline("io")
    _times, gc_rates = bus.bandwidth_timeline("gc")
    assert sum(io_rates) * 10.0 == pytest.approx(1000)
    assert sum(gc_rates) * 10.0 == pytest.approx(2000)


# ---------------------------------------------------------------- Dram


def test_dram_ports_are_independent():
    sim = Simulator()
    dram = Dram(sim, bandwidth=1000.0)
    done = []

    def reader(sim):
        yield dram.read_link.transfer(4000)
        done.append(("r", sim.now))

    def writer(sim):
        yield dram.write_link.transfer(4000)
        done.append(("w", sim.now))

    sim.process(reader(sim))
    sim.process(writer(sim))
    sim.run()
    # Both finish at 4us: no cross-port queueing.
    assert [t for _op, t in done] == [pytest.approx(4.0), pytest.approx(4.0)]


def test_dram_buffer_slots_backpressure():
    sim = Simulator()
    dram = Dram(sim, write_buffer_pages=2)
    grants = [dram.reserve_buffer_page() for _ in range(3)]
    sim.run()
    assert grants[0].triggered and grants[1].triggered
    assert not grants[2].triggered
    assert dram.buffered_pages == 2
    dram.release_buffer_page()
    sim.run()
    assert grants[2].triggered


def test_dram_invalid_parameters():
    with pytest.raises(ConfigError):
        Dram(Simulator(), bandwidth=0.0)
    with pytest.raises(ConfigError):
        Dram(Simulator(), write_buffer_pages=0)


# ---------------------------------------------------------------- EccEngine


def test_ecc_decode_time_formula():
    sim = Simulator()
    ecc = EccEngine(sim, throughput=4096.0, fixed_latency_us=1.0)
    assert ecc.decode_time(4096) == pytest.approx(2.0)


def test_ecc_lanes_parallelism():
    sim = Simulator()
    ecc = EccEngine(sim, throughput=4096.0, fixed_latency_us=1.0, lanes=2)
    done = []

    def checker(sim, tag):
        yield from ecc.check(4096)
        done.append((tag, sim.now))

    for tag in range(3):
        sim.process(checker(sim, tag))
    sim.run()
    times = sorted(t for _tag, t in done)
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(2.0)
    assert times[2] == pytest.approx(4.0)  # third waits for a lane
    assert ecc.pages_checked == 3
    assert 0.0 < ecc.utilization() <= 1.0


def test_ecc_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ConfigError):
        EccEngine(sim, throughput=0.0)
    ecc = EccEngine(sim)
    with pytest.raises(ConfigError):
        drive(sim, ecc.check(0))


# ---------------------------------------------------------------- Host


def test_host_queue_depth_enforced():
    sim = Simulator()
    host = HostInterface(sim, queue_depth=2, cmd_latency_us=0.0)
    admitted = []

    def submitter(sim, tag):
        yield from host.submit()
        admitted.append(tag)

    for tag in range(3):
        sim.process(submitter(sim, tag))
    sim.run()
    assert admitted == [0, 1]
    assert host.outstanding == 2
    host.complete()
    sim.run()
    assert admitted == [0, 1, 2]
    assert host.submitted == 3
    assert host.completed == 1


def test_host_cmd_latency_paid():
    sim = Simulator()
    host = HostInterface(sim, cmd_latency_us=2.5)
    drive(sim, host.submit())
    assert sim.now == pytest.approx(2.5)


def test_host_submitted_counts_at_slot_acquisition():
    """A request is submitted once it owns a slot, not after the
    command overhead -- so submitted/outstanding agree mid-flight."""
    sim = Simulator()
    host = HostInterface(sim, queue_depth=4, cmd_latency_us=5.0)
    observed = []

    def submitter():
        yield from host.submit()

    def observer():
        # Mid-flight: after slot acquisition, before cmd_latency elapses.
        yield sim.timeout(2.0)
        observed.append((host.submitted, host.outstanding))

    for _ in range(3):
        sim.process(submitter())
    sim.process(observer())
    sim.run()
    assert observed == [(3, 3)]
    assert host.submitted - host.completed == host.outstanding


def test_host_invalid_parameters():
    with pytest.raises(ConfigError):
        HostInterface(Simulator(), queue_depth=0)
    with pytest.raises(ConfigError):
        HostInterface(Simulator(), bandwidth=0.0)


# ---------------------------------------------------------------- Breakdown


def test_breakdown_add_and_total():
    bd = Breakdown()
    bd.add("system_bus", 1.0)
    bd.add("system_bus", 2.0)
    bd.add("dram", 0.5)
    assert bd.get("system_bus") == 3.0
    assert bd.total == 3.5


def test_breakdown_rejects_unknown_component():
    bd = Breakdown()
    with pytest.raises(KeyError):
        bd.add("quantum_link", 1.0)
    with pytest.raises(ValueError):
        bd.add("dram", -1.0)


def test_breakdown_merge_and_mean():
    a = Breakdown()
    a.add("dram", 2.0)
    b = Breakdown()
    b.add("dram", 4.0)
    b.add("ecc", 1.0)
    mean = Breakdown.mean([a, b])
    assert mean.get("dram") == pytest.approx(3.0)
    assert mean.get("ecc") == pytest.approx(0.5)
    assert Breakdown.mean([]).total == 0.0


def test_breakdown_as_dict_ordered():
    bd = Breakdown()
    bd.add("fnoc", 1.0)
    d = bd.as_dict()
    assert list(d.keys()) == list(COMPONENTS)
    assert d["fnoc"] == 1.0
    assert d["dram"] == 0.0
