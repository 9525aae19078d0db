"""The flash-controller network-on-chip (fNoC) fabric.

Switching model: virtual cut-through at packet granularity with
flit-level serialization and credit-based input buffering.

* Every directed channel is a serializing :class:`~repro.sim.Link`; a
  packet occupies the channel for ``flits x flit_time``.
* Every router input port holds a :class:`~repro.sim.Resource` of
  ``buffer_flits`` credits per virtual channel.  A packet acquires
  ``min(flits, buffer_flits)`` credits downstream *before* it may use
  the channel, and the credits are returned when the packet's tail has
  left that router on the next channel -- giving real backpressure.
* Cut-through pipelining: the packet header is forwarded to the next
  hop ``flit_time + router_latency`` after the channel starts serving
  the packet, while the tail is still serializing behind it.

Deadlock freedom: the 1-D mesh routes dimension-order (acyclic channel
dependencies); the ring assigns dateline-crossing packets to a second
virtual channel (see :class:`~repro.noc.topology.Ring`); the crossbar
is a two-hop star with an amply-buffered hub.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..errors import ConfigError
from ..sim import LatencyStats, Link, Resource, Simulator
from .packet import DEFAULT_FLIT_BYTES, DEFAULT_HEADER_BYTES, Packet, \
    flit_count
from .topology import Topology, XBAR_HUB

__all__ = ["FNoC", "NocBreakdown"]

#: Default router pipeline latency per hop (us); a few ns-scale cycles.
DEFAULT_ROUTER_LATENCY_US = 0.01
#: Default packetization/depacketization delay at the network interface.
DEFAULT_NI_LATENCY_US = 0.05
#: Default input buffer depth in flits (paper: "small input buffer").
DEFAULT_BUFFER_FLITS = 16


@dataclass
class NocBreakdown:
    """Latency attribution for one packet traversal."""

    queue_wait: float      #: time blocked on credits + channel arbitration
    serialization: float   #: tail serialization on the final channel
    hop_pipeline: float    #: header forwarding time across hops
    total: float           #: end-to-end NI-to-NI latency
    hops: int              #: channels traversed


class _HopRelease:
    """One completion callback bundling a hop's guard + credit releases.

    Replaces up to three per-hop lambda closures on the channel's
    ``done`` event with a single allocation; the slots are resolved once
    when the hop's bookkeeping is known.
    """

    __slots__ = ("guard", "pool_a", "tokens_a", "pool_b", "tokens_b")

    def __init__(self, guard, pool_a, tokens_a, pool_b=None, tokens_b=0):
        self.guard = guard
        self.pool_a = pool_a
        self.tokens_a = tokens_a
        self.pool_b = pool_b
        self.tokens_b = tokens_b

    def __call__(self, _event) -> None:
        if self.guard is not None:
            self.guard.release()
        if self.pool_a is not None:
            self.pool_a.release(self.tokens_a)
        if self.pool_b is not None:
            self.pool_b.release(self.tokens_b)


def _build_hop_schedule(hops, flits):
    """Precompute the per-hop walk for one ``(route, flit count)`` pair.

    Everything the old per-packet hop loop decided — credit counts, which
    releases ride which channel's ``done`` event, which credits carry to
    the next hop — depends only on the route's resources and the packet's
    flit count, so it is computed once and cached.  The completion
    bookkeeping per hop rides a single :class:`_HopRelease`: the wormhole
    guard, the credits held at the *previous* router (they drain as this
    channel serializes the tail out of it), and — with a deep buffer —
    this hop's own credits, freed when the whole packet is absorbed
    downstream (virtual cut-through).  A shallow buffer instead carries
    its credits to the next hop (wormhole coupling — downstream stalls
    propagate upstream).

    Returns ``(steps, final_held)``: *steps* is a tuple of
    ``(guard, pool, tokens, link, release)`` per hop (*release* may be
    None), and *final_held* is the ``(pool, tokens)`` still held when the
    tail reaches the destination, or None.  The ``_HopRelease`` instances
    are stateless and safely shared by every packet using this schedule.
    """
    steps = []
    held = None
    for pool, link, guard in hops:
        capacity = pool.capacity
        tokens = flits if flits < capacity else capacity
        if tokens >= flits:
            if held is not None:
                release = _HopRelease(guard, held[0], held[1], pool, tokens)
            else:
                release = _HopRelease(guard, pool, tokens)
            held = None
        else:
            if guard is not None or held is not None:
                prev_pool, prev_tokens = held if held is not None \
                    else (None, 0)
                release = _HopRelease(guard, prev_pool, prev_tokens)
            else:
                release = None
            held = (pool, tokens)
        steps.append((guard, pool, tokens, link, release))
    return tuple(steps), held


class FNoC:
    """The flash-controller interconnect.

    ``channel_bandwidth`` is bytes/us per directed channel.  All
    channels are homogeneous, matching the paper's fNoC.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 channel_bandwidth: float,
                 flit_bytes: int = DEFAULT_FLIT_BYTES,
                 header_bytes: int = DEFAULT_HEADER_BYTES,
                 buffer_flits: int = DEFAULT_BUFFER_FLITS,
                 router_latency_us: float = DEFAULT_ROUTER_LATENCY_US,
                 ni_latency_us: float = DEFAULT_NI_LATENCY_US,
                 hol_blocking: Optional[bool] = None):
        if channel_bandwidth <= 0:
            raise ConfigError(
                f"channel bandwidth must be positive: {channel_bandwidth}"
            )
        if buffer_flits < 1:
            raise ConfigError(f"buffer_flits must be >= 1: {buffer_flits}")
        if flit_bytes < 1:
            raise ConfigError(f"flit_bytes must be >= 1: {flit_bytes}")
        self.sim = sim
        self.topology = topology
        self.channel_bandwidth = channel_bandwidth
        self.flit_bytes = flit_bytes
        self.header_bytes = header_bytes
        self.buffer_flits = buffer_flits
        self.router_latency_us = router_latency_us
        self.ni_latency_us = ni_latency_us
        # Wormhole head-of-line blocking: a packet that has won a channel
        # holds it while waiting for downstream credits, so small buffers
        # cost throughput (paper Fig 13(b)).  Rings instead interleave
        # virtual channels on each physical channel, which our packet-
        # granular model represents as non-blocking arbitration -- and
        # holding the channel across the dateline could deadlock.
        if hol_blocking is None:
            hol_blocking = topology.vc_count == 1
        self.hol_blocking = hol_blocking

        self._channels: Dict[Tuple[int, int], Link] = {}
        for u, v in topology.channels():
            self._channels[(u, v)] = Link(
                sim, channel_bandwidth, name=f"noc{u}->{v}")
        self._guards: Dict[Tuple[int, int], Resource] = {}
        if self.hol_blocking:
            for u, v in topology.channels():
                self._guards[(u, v)] = Resource(sim, 1,
                                                name=f"guard{u}->{v}")
        self._ports: Dict[Tuple[int, int, int], Resource] = {}
        for u, v in topology.channels():
            depth = buffer_flits
            if v == XBAR_HUB:
                # The crossbar hub is amply buffered: it never backpressures.
                depth = buffer_flits * max(2, topology.k)
            for vc in range(topology.vc_count):
                self._ports[(u, v, vc)] = Resource(
                    sim, depth, name=f"port{u}->{v}#vc{vc}"
                )

        #: Serialization time of one flit on a channel (us).  A plain
        #: attribute (not a property): ``send`` reads it per packet.
        self.flit_time = flit_bytes / channel_bandwidth
        self._header_step = self.flit_time + router_latency_us
        # All-pairs route table, built once: (path, hop_count,
        # serialization resources per hop, hop-schedule cache).  Each hop
        # entry carries the already-resolved (credit pool, channel link,
        # wormhole guard) triple so the per-packet path involves no dict
        # lookups; the schedule cache (flit count -> precomputed walk,
        # see :func:`_build_hop_schedule`) fills lazily as packet sizes
        # appear.
        self._routes: Dict[Tuple[int, int],
                           Tuple[List[int], int, Tuple, dict]] = {}
        for (src, dst), (path, vc) in topology.routes().items():
            hops = tuple(
                (self._ports[(u, v, vc)], self._channels[(u, v)],
                 self._guards.get((u, v)))
                for u, v in zip(path, path[1:])
            )
            self._routes[(src, dst)] = (path, len(path) - 1, hops, {})
        #: payload_bytes -> (flit count, wire bytes); page-sized payloads
        #: dominate so this saturates at a handful of entries.
        self._flit_cache: Dict[int, Tuple[int, int]] = {}

        self.packet_latency = LatencyStats("fnoc_packet",
                                           keep_samples=False)
        self.packets_sent = 0
        self.bytes_sent = 0

    # -- helpers -----------------------------------------------------------

    def channel(self, u: int, v: int) -> Link:
        """The directed channel link from *u* to *v*."""
        try:
            return self._channels[(u, v)]
        except KeyError:
            raise ConfigError(f"no channel {u}->{v} in {self.topology.name}")

    def port(self, u: int, v: int, vc: int) -> Resource:
        """Input-buffer credit pool at *v* for traffic arriving from *u*."""
        return self._ports[(u, v, vc)]

    # -- transmission ------------------------------------------------------

    def send(self, packet: Packet) -> Generator:
        """Generator: move *packet* from its source NI to its destination NI.

        Returns a :class:`NocBreakdown`.  ``src == dst`` short-circuits
        with only the NI latency (no fabric traversal).
        """
        sim = self.sim
        t_begin = sim.now
        packet.created_at = t_begin
        try:
            path, hop_count, hop_resources, schedules = \
                self._routes[(packet.src, packet.dst)]
        except KeyError:
            # Out-of-range node: reproduce the topology's ConfigError.
            self.topology.path(packet.src, packet.dst)
            raise
        # Packetization at the source network interface.
        if self.ni_latency_us > 0:
            yield sim.timeout(self.ni_latency_us)
        if hop_count == 0:
            total = sim.now - t_begin
            self.packet_latency.add(total)
            self.packets_sent += 1
            self.bytes_sent += packet.payload_bytes
            return NocBreakdown(0.0, 0.0, 0.0, total, 0)

        payload = packet.payload_bytes
        cached = self._flit_cache.get(payload)
        if cached is None:
            flits = flit_count(payload, self.flit_bytes, self.header_bytes)
            cached = self._flit_cache[payload] = (
                flits, flits * self.flit_bytes)
        flits, wire_bytes = cached
        schedule = schedules.get(flits)
        if schedule is None:
            schedule = schedules[flits] = _build_hop_schedule(
                hop_resources, flits)
        steps, final_held = schedule
        header_step = self._header_step
        traffic_class = packet.traffic_class

        queue_wait = 0.0
        last_done = None
        for guard, pool, tokens, link, release in steps:
            t_request = sim.now
            if guard is not None:
                # Wormhole: win the channel first, then wait for credits
                # while holding it (head-of-line blocking).
                yield guard.acquire()
            yield pool.acquire(tokens)
            start, done = link.transfer_with_start(wire_bytes, traffic_class)
            yield start
            queue_wait += sim.now - t_request
            # Completion bookkeeping was precomputed into one shared
            # callback per hop (see _build_hop_schedule).
            if release is not None:
                done.add_callback(release)
            last_done = done
            # Forward the header while the tail is still serializing.
            yield sim.timeout(header_step)

        # Wait for the tail to fully arrive at the destination router,
        # then eject into the dBUF (credits return immediately).
        yield last_done
        if final_held is not None:
            final_held[0].release(final_held[1])

        total = sim.now - t_begin
        serialization = flits * self.flit_time
        self.packet_latency.add(total)
        self.packets_sent += 1
        self.bytes_sent += packet.payload_bytes
        return NocBreakdown(
            queue_wait=queue_wait,
            serialization=serialization,
            hop_pipeline=hop_count * header_step,
            total=total,
            hops=hop_count,
        )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint fabric meters (all channels must be idle).

        Channel links are keyed ``"u->v"`` (JSON objects cannot key on
        tuples); topology and routing are structural and rebuilt from
        config.
        """
        return {
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "packet_latency": self.packet_latency.state_dict(),
            "channels": {f"{u}->{v}": link.state_dict()
                         for (u, v), link in sorted(self._channels.items())},
        }

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict` (same topology)."""
        self.packets_sent = int(state["packets_sent"])
        self.bytes_sent = int(state["bytes_sent"])
        self.packet_latency.load_state(state["packet_latency"])
        for key, link_state in state["channels"].items():
            u, v = key.split("->")
            self._channels[(int(u), int(v))].load_state(link_state)

    # -- reporting ----------------------------------------------------------

    def mean_channel_utilization(self) -> float:
        """Average busy fraction across all fabric channels."""
        if not self._channels:
            return 0.0
        total = sum(link.utilization() for link in self._channels.values())
        return total / len(self._channels)

    def max_channel_utilization(self) -> float:
        """Busy fraction of the hottest channel (the bottleneck)."""
        if not self._channels:
            return 0.0
        return max(link.utilization() for link in self._channels.values())
