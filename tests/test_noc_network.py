"""Unit and property tests for the fNoC fabric (credits, cut-through)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.noc import Crossbar, FNoC, Mesh1D, Packet, Ring, flit_count
from repro.sim import Simulator


def make_noc(topology, bandwidth=1000.0, **kwargs):
    sim = Simulator()
    defaults = {"ni_latency_us": 0.0, "router_latency_us": 0.0}
    defaults.update(kwargs)
    noc = FNoC(sim, topology, bandwidth, **defaults)
    return sim, noc


def send_all(sim, noc, packets):
    procs = [sim.process(noc.send(p)) for p in packets]
    sim.run()
    return [p.value for p in procs]


# ---------------------------------------------------------------- flit math


def test_flit_count_rounds_up():
    assert flit_count(4096, flit_bytes=256, header_bytes=16) == 17
    assert flit_count(0, flit_bytes=256, header_bytes=16) == 1
    assert flit_count(256 - 16, flit_bytes=256, header_bytes=16) == 1
    assert flit_count(256 - 15, flit_bytes=256, header_bytes=16) == 2


def test_flit_count_rejects_bad_args():
    with pytest.raises(ConfigError):
        flit_count(-1)
    with pytest.raises(ConfigError):
        flit_count(100, flit_bytes=0)


def test_packet_wire_bytes_quantized():
    pkt = Packet(src=0, dst=1, payload_bytes=100)
    assert pkt.wire_bytes(flit_bytes=256, header_bytes=16) == 256


# ---------------------------------------------------------------- latency


def test_single_hop_latency_is_serialization():
    topo = Mesh1D(2)
    sim, noc = make_noc(topo, bandwidth=1000.0)
    pkt = Packet(src=0, dst=1, payload_bytes=4096)
    [bd] = send_all(sim, noc, [pkt])
    flits = pkt.flits(noc.flit_bytes, noc.header_bytes)
    expected = flits * noc.flit_time
    assert bd.total == pytest.approx(expected, rel=1e-6)
    assert bd.hops == 1
    assert bd.queue_wait == pytest.approx(0.0)


def test_multi_hop_pipelines_not_store_and_forward():
    """Cut-through: latency ~= serialization + hops * flit_time, far below
    hops * serialization (store-and-forward)."""
    topo = Mesh1D(8)
    sim, noc = make_noc(topo, bandwidth=1000.0)
    pkt = Packet(src=0, dst=7, payload_bytes=4096)
    [bd] = send_all(sim, noc, [pkt])
    serialization = pkt.flits(noc.flit_bytes, noc.header_bytes) * noc.flit_time
    assert bd.hops == 7
    assert bd.total < 2.0 * serialization
    assert bd.total >= serialization


def test_ni_latency_added():
    topo = Mesh1D(2)
    sim, noc = make_noc(topo, ni_latency_us=5.0)
    pkt = Packet(src=0, dst=1, payload_bytes=1000)
    [bd] = send_all(sim, noc, [pkt])
    assert bd.total >= 5.0


def test_same_node_send_costs_only_ni():
    topo = Mesh1D(4)
    sim, noc = make_noc(topo, ni_latency_us=1.0)
    [bd] = send_all(sim, noc, [Packet(src=2, dst=2, payload_bytes=4096)])
    assert bd.hops == 0
    assert bd.total == pytest.approx(1.0)


def test_contention_serializes_on_shared_channel():
    """Two packets crossing the same channel: the second waits."""
    topo = Mesh1D(3)
    sim, noc = make_noc(topo, bandwidth=1000.0)
    pkts = [Packet(src=0, dst=2, payload_bytes=4096),
            Packet(src=0, dst=2, payload_bytes=4096)]
    results = send_all(sim, noc, pkts)
    totals = sorted(bd.total for bd in results)
    assert totals[1] > totals[0] * 1.5


def test_disjoint_channels_run_in_parallel():
    """Opposite-direction mesh channels do not contend."""
    topo = Mesh1D(4)
    sim, noc = make_noc(topo, bandwidth=1000.0)
    pkts = [Packet(src=0, dst=3, payload_bytes=4096),
            Packet(src=3, dst=0, payload_bytes=4096)]
    results = send_all(sim, noc, pkts)
    assert results[0].total == pytest.approx(results[1].total, rel=1e-6)
    assert results[0].queue_wait == pytest.approx(0.0)


def test_packet_stats_recorded():
    topo = Mesh1D(2)
    sim, noc = make_noc(topo)
    send_all(sim, noc, [Packet(src=0, dst=1, payload_bytes=4096)])
    assert noc.packets_sent == 1
    assert noc.bytes_sent == 4096
    assert noc.packet_latency.count == 1
    assert noc.mean_channel_utilization() > 0.0
    assert noc.max_channel_utilization() > 0.0


def test_invalid_configs_rejected():
    sim = Simulator()
    with pytest.raises(ConfigError):
        FNoC(sim, Mesh1D(4), channel_bandwidth=0.0)
    with pytest.raises(ConfigError):
        FNoC(sim, Mesh1D(4), channel_bandwidth=10.0, buffer_flits=0)
    noc = FNoC(sim, Mesh1D(4), channel_bandwidth=10.0)
    with pytest.raises(ConfigError):
        noc.channel(0, 3)


# ------------------------------------------------------- credits / buffers


def test_small_buffers_slow_delivery_under_congestion():
    """With scarce buffering, many concurrent packets take longer overall
    than with ample buffering (paper Fig 13(b) effect)."""
    def run(buffer_flits):
        topo = Mesh1D(8)
        sim, noc = make_noc(topo, bandwidth=200.0, buffer_flits=buffer_flits)
        pkts = [Packet(src=s, dst=(s + 3) % 8, payload_bytes=4096)
                for s in range(8) for _ in range(4)]
        send_all(sim, noc, pkts)
        return sim.now

    small = run(2)
    large = run(64)
    assert small >= large


def test_credits_are_conserved_after_traffic():
    topo = Mesh1D(8)
    sim, noc = make_noc(topo, bandwidth=500.0, buffer_flits=4)
    pkts = [Packet(src=s, dst=d, payload_bytes=4096)
            for s in range(8) for d in range(8) if s != d]
    send_all(sim, noc, pkts)
    for pool in noc._ports.values():
        assert pool.in_use == 0
        assert pool.queue_length == 0


@settings(deadline=None, max_examples=25)
@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(64, 8192)),
    min_size=1, max_size=30,
))
def test_all_packets_always_delivered_mesh(traffic):
    """Property: no traffic pattern wedges the mesh (deadlock freedom)."""
    topo = Mesh1D(8)
    sim, noc = make_noc(topo, bandwidth=100.0, buffer_flits=2)
    pkts = [Packet(src=s, dst=d, payload_bytes=n) for s, d, n in traffic]
    results = send_all(sim, noc, pkts)
    assert all(bd is not None for bd in results)
    assert noc.packets_sent == sum(1 for s, d, _n in traffic if True)


@settings(deadline=None, max_examples=25)
@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(64, 8192)),
    min_size=1, max_size=30,
))
def test_all_packets_always_delivered_ring(traffic):
    """Property: dateline VCs keep the ring deadlock-free."""
    topo = Ring(8)
    sim, noc = make_noc(topo, bandwidth=100.0, buffer_flits=2)
    pkts = [Packet(src=s, dst=d, payload_bytes=n) for s, d, n in traffic]
    results = send_all(sim, noc, pkts)
    assert all(bd is not None for bd in results)


@settings(deadline=None, max_examples=15)
@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(64, 8192)),
    min_size=1, max_size=20,
))
def test_all_packets_always_delivered_crossbar(traffic):
    topo = Crossbar(8)
    sim, noc = make_noc(topo, bandwidth=100.0, buffer_flits=2)
    pkts = [Packet(src=s, dst=d, payload_bytes=n) for s, d, n in traffic]
    results = send_all(sim, noc, pkts)
    assert all(bd is not None for bd in results)


# ------------------------------------------------------- topology shapes


def test_crossbar_beats_congested_mesh():
    """All-to-one traffic: per-channel-equal bandwidth favors the xbar's
    single shared output over the mesh's middle links... both must at
    least deliver; mesh must not be faster than xbar at same channel BW
    under uniform random traffic with heavy load."""
    def run(topo):
        sim, noc = make_noc(topo, bandwidth=500.0)
        pkts = [Packet(src=s, dst=(s + 4) % 8, payload_bytes=4096)
                for s in range(8) for _ in range(8)]
        send_all(sim, noc, pkts)
        return sim.now

    mesh_time = run(Mesh1D(8))
    xbar_time = run(Crossbar(8))
    assert xbar_time <= mesh_time * 1.05


def test_mesh_beats_ring_at_equal_bisection():
    """Paper Fig 13(a): at equal bisection bandwidth the 1D mesh
    outperforms the ring because ring channels are narrower."""
    bisection = 1000.0

    def run(topo):
        bw = topo.channel_bandwidth_for_bisection(bisection)
        sim, noc = make_noc(topo, bandwidth=bw)
        pkts = [Packet(src=s, dst=(s + 4) % 8, payload_bytes=4096)
                for s in range(8) for _ in range(8)]
        send_all(sim, noc, pkts)
        return sim.now

    mesh_time = run(Mesh1D(8))
    ring_time = run(Ring(8))
    assert mesh_time < ring_time
