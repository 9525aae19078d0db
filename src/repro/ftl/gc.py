"""Garbage-collection engine and the three policies the paper compares.

* ``pagc`` -- parallel GC (the paper's Baseline, after Shahidi et al.):
  when triggered, every plane collects concurrently until the free pool
  recovers.
* ``preemptive`` -- semi-preemptive GC (Lee et al.): page moves yield to
  pending host I/O unless the free pool has fallen below a hard floor.
* ``tinytail`` -- Tiny-Tail-style partial GC (Yan et al.): only a small
  number of channels collect at a time, in bounded bursts, so that most
  channels remain free to serve I/O.

The engine is datapath-agnostic: page movement is delegated to the
architecture's datapath object (baseline bounce-through-DRAM versus
decoupled global copyback).

Its two relocation steps, :meth:`GarbageCollector.evacuate` and
:meth:`GarbageCollector.finish`, are the device's only page relocator:
static wear leveling and the live superblock migration move FTL-mapped
pages through them too, so :class:`GcStats` meters every relocation.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..controller import Breakdown
from ..errors import ConfigError, MappingError
from ..sim import Resource, Simulator, WakeList
from .blocks import BlockManager
from .mapping import PageMappingTable

__all__ = ["GarbageCollector", "GcStats", "GC_POLICIES"]

GC_POLICIES = ("pagc", "preemptive", "tinytail")

#: Failed destination polls a page move tolerates before it declares
#: the allocator starved (see :meth:`GarbageCollector._move_page`).
_STARVATION_POLLS = 10_000

#: Page-move breakdowns kept in :attr:`GcStats.move_breakdowns`.
_SAMPLE_BREAKDOWNS = 512


class GcStats:
    """Aggregate garbage-collection measurements."""

    def __init__(self) -> None:
        self.pages_moved = 0
        self.pages_dropped = 0      # invalidated mid-flight
        self.alloc_stalls = 0       # destination allocation retries
        self.blocks_erased = 0
        self.blocks_retired = 0     # worn out, no spare left -> marked bad
        self.blocks_remapped = 0    # worn out, remapped onto a spare
        self.episodes = 0
        self.busy_time = 0.0
        self.move_breakdowns: List[Breakdown] = []
        #: One dict per finished episode: start, end, pages, blocks.
        self.episode_log: List[dict] = []

    @property
    def throughput_pages_per_us(self) -> float:
        """Pages moved per microsecond of active GC time."""
        return self.pages_moved / self.busy_time if self.busy_time else 0.0

    def mean_move_breakdown(self) -> Breakdown:
        """Component-wise mean of sampled page-move breakdowns."""
        return Breakdown.mean(self.move_breakdowns)

    # -- checkpointing ------------------------------------------------------

    _COUNTERS = (
        "pages_moved", "pages_dropped", "alloc_stalls", "blocks_erased",
        "blocks_retired", "blocks_remapped", "episodes",
    )

    def state_dict(self) -> dict:
        """JSON-able checkpoint of all GC measurements."""
        return {
            "counters": {name: getattr(self, name)
                         for name in self._COUNTERS},
            "busy_time": self.busy_time,
            "move_breakdowns": [b.parts for b in self.move_breakdowns],
            "episode_log": [dict(entry) for entry in self.episode_log],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint."""
        for name in self._COUNTERS:
            setattr(self, name, int(state["counters"][name]))
        self.busy_time = float(state["busy_time"])
        self.move_breakdowns = [Breakdown.from_parts(parts)
                                for parts in state["move_breakdowns"]]
        self.episode_log = [dict(entry) for entry in state["episode_log"]]


class GarbageCollector:
    """Policy-driven GC over a :class:`BlockManager` and a datapath."""

    def __init__(self, sim: Simulator, mapping: PageMappingTable,
                 block_manager: BlockManager, datapath,
                 host=None, policy: str = "pagc",
                 trigger_free_fraction: float = 0.10,
                 stop_free_fraction: float = 0.175,
                 hard_floor_fraction: float = 0.03,
                 tinytail_channels: int = 1,
                 partial_pages: int = 8,
                 preempt_poll_us: float = 10.0,
                 pipeline_depth: int = 4):
        if policy not in GC_POLICIES:
            raise ConfigError(f"unknown GC policy {policy!r}")
        if not 0.0 < trigger_free_fraction < stop_free_fraction <= 1.0:
            raise ConfigError(
                "need 0 < trigger < stop <= 1, got "
                f"{trigger_free_fraction}/{stop_free_fraction}"
            )
        if tinytail_channels < 1 or partial_pages < 1:
            raise ConfigError("tinytail parameters must be >= 1")
        if pipeline_depth < 1:
            raise ConfigError(f"pipeline_depth must be >= 1: {pipeline_depth}")
        self.sim = sim
        self.mapping = mapping
        self.blocks = block_manager
        self.datapath = datapath
        self.host = host
        self.policy = policy
        self.trigger_free_fraction = trigger_free_fraction
        self.stop_free_fraction = stop_free_fraction
        self.hard_floor_fraction = hard_floor_fraction
        self.partial_pages = partial_pages
        self.preempt_poll_us = preempt_poll_us
        self.pipeline_depth = pipeline_depth
        self.stats = GcStats()
        self.active = False
        #: Woken when an episode ends and :attr:`active` turns False.
        self.wake_on_idle = WakeList()
        self._episode_start: Optional[float] = None
        self._tt_tokens = Resource(sim, capacity=tinytail_channels,
                                   name="tinytail_channels")

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint GC stats (no episode may be running)."""
        if self.active:
            raise ConfigError("cannot snapshot during an active GC episode")
        return {"stats": self.stats.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore stats captured by :meth:`state_dict`."""
        self.stats.load_state(state["stats"])

    # -- triggering ----------------------------------------------------------

    def needs_gc(self) -> bool:
        """Whether the free pool is below the trigger threshold."""
        return self.blocks.free_fraction < self.trigger_free_fraction

    def maybe_trigger(self, force: bool = False) -> bool:
        """Start a GC episode if needed and not already running.

        ``force=True`` starts an episode regardless of the threshold --
        the FTL uses it when a host allocation starves, which can happen
        with the free fraction sitting exactly on the trigger boundary.
        """
        if self.active or (not force and not self.needs_gc()):
            return False
        self.active = True
        self.sim.process(self._episode(), name="gc_episode")
        return True

    # -- episode ---------------------------------------------------------------

    def current_busy_time(self) -> float:
        """GC busy time including any still-running episode."""
        busy = self.stats.busy_time
        if self.active and self._episode_start is not None:
            busy += self.sim.now - self._episode_start
        return busy

    def _episode(self) -> Generator:
        start = self.sim.now
        self._episode_start = start
        self.stats.episodes += 1
        pages0 = self.stats.pages_moved
        blocks0 = self.stats.blocks_erased
        geometry = self.blocks.geometry
        if self.policy == "tinytail":
            workers = [
                self.sim.process(self._channel_worker(channel))
                for channel in range(geometry.channels)
            ]
        else:
            workers = [
                self.sim.process(self._plane_worker(plane))
                for plane in range(geometry.planes_total)
            ]
        yield self.sim.all_of(workers)
        end = self.sim.now
        self.stats.busy_time += end - start
        self.stats.episode_log.append({
            "start": start,
            "end": end,
            "pages": self.stats.pages_moved - pages0,
            "blocks": self.stats.blocks_erased - blocks0,
        })
        self._episode_start = None
        self.active = False
        self.wake_on_idle.notify()

    def _should_collect(self) -> bool:
        """Keep collecting below the stop threshold -- and also whenever
        the host cannot allocate at all (pools stuck at the GC reserve),
        which can happen with the device-wide fraction looking healthy."""
        if self.blocks.free_fraction < self.stop_free_fraction:
            return True
        return not self.blocks.host_allocatable()

    def _plane_worker(self, plane: int) -> Generator:
        while self._should_collect():
            victim = self.blocks.pick_victim(plane)
            if victim is None:
                return
            yield from self.evacuate(victim)
            yield from self.finish(victim)

    def _channel_worker(self, channel: int) -> Generator:
        """TinyTail: all planes of one channel, gated by the channel tokens."""
        geometry = self.blocks.geometry
        per_channel = geometry.planes_total // geometry.channels
        planes = range(channel * per_channel, (channel + 1) * per_channel)
        while self._should_collect():
            progressed = False
            for plane in planes:
                if not self._should_collect():
                    return
                victim = self.blocks.pick_victim(plane)
                if victim is None:
                    continue
                progressed = True
                yield from self.evacuate(victim, gated=True)
                yield from self.finish(victim, gated=True)
            if not progressed:
                return

    # -- block relocation ---------------------------------------------------------

    def evacuate(self, block: int, gated: bool = False) -> Generator:
        """Claim FULL block *block* and move its valid pages off it.

        Page moves are issued ``pipeline_depth`` at a time (mirroring
        PaGC's plane-parallel bursts); the TinyTail policy (*gated*)
        instead holds a channel token for at most ``partial_pages``
        moves per burst.  The block stays COLLECTING, owned by the
        caller, with no valid page left.
        """
        self.blocks.claim_for_collection(block)
        pages = self.blocks.valid_pages_of(block)
        burst = self.partial_pages if gated else self.pipeline_depth
        for start in range(0, len(pages), burst):
            chunk = pages[start:start + burst]
            if self.policy == "preemptive":
                yield from self._wait_for_io_quiet()
            grant = (self._tt_tokens.acquire(owner="gc-tinytail")
                     if gated else None)
            try:
                if grant is not None:
                    yield grant
                moves = [self.sim.process(self._move_page(src))
                         for src in chunk]
                yield self.sim.all_of(moves)
            finally:
                if grant is not None:
                    self._tt_tokens.cancel(grant)

    def finish(self, block: int, gated: bool = False) -> Generator:
        """Erase evacuated block *block* and release or retire it."""
        block_addr = self.blocks.info(block).addr
        grant = (self._tt_tokens.acquire(owner="gc-tinytail-erase")
                 if gated else None)
        try:
            if grant is not None:
                yield grant
            yield from self.datapath.gc_erase(block_addr)
        finally:
            if grant is not None:
                self._tt_tokens.cancel(grant)
        # An erase is the point where wear-out shows: the reliability
        # layer may remap the worn block onto a spare (SRT) or retire it
        # outright, in which case it must not rejoin the free pool.
        reliability = getattr(self.datapath, "reliability", None)
        verdict = "ok"
        if reliability is not None:
            verdict = reliability.after_erase(block_addr)
        if verdict == "retired":
            self.stats.blocks_retired += 1
        else:
            if verdict == "remapped":
                self.stats.blocks_remapped += 1
            self.blocks.release_block(block)
        self.stats.blocks_erased += 1

    def _move_page(self, src: int) -> Generator:
        """Relocate the valid page with PPN *src* to a GC-stream page.

        The destination wait polls every ``preempt_poll_us``: each poll
        drops the move if the host overwrote the source since the last
        one, else tries to allocate a destination, counting a stall
        when none is free.  Transiently out of destinations is normal
        -- another worker's erase will replenish the pool.  Starvation
        bound: with host/GC write streams separated and fully-valid
        victims skipped, some worker always finishes its block and
        erases; if no erase lands within this many polls the allocator
        invariant is broken and silence would be a livelock.
        """
        blocks = self.blocks
        polls_left = _STARVATION_POLLS
        while True:
            if self.mapping.reverse_lookup(src) is None:
                # Host overwrote this LPN since the victim scan.
                blocks.invalidate(src)
                self.stats.pages_dropped += 1
                return
            dst = blocks.try_allocate_page(for_gc=True)
            if dst is not None:
                break
            self.stats.alloc_stalls += 1
            if polls_left <= 0:
                raise MappingError(
                    f"gc destination starvation: no erase completed "
                    f"in {_STARVATION_POLLS * self.preempt_poll_us:.0f}"
                    f"us while relocating {blocks.page_addr(src)}"
                )
            polls_left -= 1
            yield self.sim.timeout(self.preempt_poll_us)
        breakdown = yield from self.datapath.gc_move(blocks.page_addr(src),
                                                     blocks.page_addr(dst))
        if self.mapping.reverse_lookup(src) is not None:
            self.mapping.move(src, dst)
            blocks.commit_page(dst, valid=True)
            self.stats.pages_moved += 1
        else:
            # Invalidated while the copy was in flight: the copied page
            # is dead on arrival and will be reclaimed by a later GC.
            blocks.commit_page(dst, valid=False)
            self.stats.pages_dropped += 1
        blocks.invalidate(src)
        if len(self.stats.move_breakdowns) < _SAMPLE_BREAKDOWNS:
            self.stats.move_breakdowns.append(breakdown)

    def _wait_for_io_quiet(self) -> Generator:
        """Preemptive policy: stall while host I/O is pending, unless the
        free pool has hit the hard floor.

        The wait parks until the host goes idle or the free pool
        shrinks, then rechecks on its poll grid.
        """
        if self.host is None:
            return
        yield from self.sim.wait_until(
            self.preempt_poll_us, self._io_quiet,
            wake=(self.host.wake_on_idle, self.blocks.wake_on_free_fall))

    def _io_quiet(self) -> Optional[bool]:
        """Poll check of :meth:`_wait_for_io_quiet`: True once it may go."""
        if (self.host.outstanding > 0
                and self.blocks.free_fraction > self.hard_floor_fraction):
            return None
        return True
