"""Flash die / plane behavioural model.

Each *plane* is a capacity-1 :class:`~repro.sim.Resource`: one array
operation (read, program, erase) holds it for the technology latency.

The model enforces NAND programming discipline per block -- a page may
be programmed exactly once between erases -- with one int bitmask of
programmed pages per touched block.
Page *content* is not simulated; the FTL layers track logical validity.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import AddressError, FlashError
from ..sim import Resource, Simulator
from .geometry import FlashGeometry, PhysAddr
from .pagemask import mask_of, offsets_of
from .timing import FlashTiming

__all__ = ["BlockState", "FlashBackend"]


class BlockState:
    """Per-physical-block programming/erase state.

    The backend tracks *which* pages of a block have been programmed
    since the last erase.  Reprogramming without an erase is an error
    (the invariant GC correctness rests on).  Strict intra-block
    program *ordering* is intentionally not enforced as a wait: the
    FTL allocates pages in order, but concurrent datapath processes may
    complete programs out of order, and blocking them on their
    predecessors can deadlock against capacity-limited stages (dBUF
    credits, flush workers) while adding nothing to the contention
    metrics this model exists to measure.

    The programmed pages live in ``mask`` (bit ``p`` set once page ``p``
    is programmed; see :mod:`repro.flash.pagemask`).
    """

    __slots__ = ("mask", "erase_count")

    def __init__(self) -> None:
        self.mask = 0
        self.erase_count = 0

    @property
    def programmed(self) -> FrozenSet[int]:
        """Read-only view: offsets programmed since the last erase.

        Assigning an iterable of offsets replaces ``mask``.
        """
        return frozenset(offsets_of(self.mask))

    @programmed.setter
    def programmed(self, offsets: Iterable[int]) -> None:
        self.mask = mask_of(offsets)

    @property
    def write_ptr(self) -> int:
        """Number of pages programmed since the last erase."""
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return (
            f"BlockState(programmed={self.write_ptr}, "
            f"erases={self.erase_count})"
        )


class FlashBackend:
    """The full flash array: every plane of every die, plus block state.

    The backend keeps state, not time.  Its ``prepare_read`` /
    ``prepare_program`` / ``prepare_erase`` validate an array op,
    update the block state and draw the latency, returning
    ``(plane, duration)``; the flash controller then holds that plane
    through :meth:`~repro.sim.Resource.hold` in its own generator frame.
    Pre-conditioning marks whole blocks programmed in bulk, by block
    index, with :meth:`mark_programmed`.
    """

    def __init__(self, sim: Simulator, geometry: FlashGeometry,
                 timing: FlashTiming, seed: int = 1,
                 deterministic_timing: bool = True):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.deterministic_timing = deterministic_timing
        self._rng = random.Random(seed)
        #: One capacity-1 :class:`~repro.sim.Resource` per plane.
        self.planes: List[Resource] = [
            Resource(sim, 1, name=f"plane{i}")
            for i in range(geometry.planes_total)
        ]
        self._blocks: Dict[int, BlockState] = {}
        # Linearization strides for addresses already validated once:
        # the prepare_* calls validate up front and then index planes and
        # blocks without re-running the per-field bounds checks.
        self._plane_strides = (
            geometry.ways * geometry.dies * geometry.planes,
            geometry.dies * geometry.planes,
            geometry.planes,
        )
        self._blocks_per_plane = geometry.blocks_per_plane
        #: Every page of a block programmed: shared by every
        #: pre-conditioned block (an int, so sharing cannot alias).
        self._full_mask = (1 << geometry.pages_per_block) - 1
        #: Deterministic latencies, resolved once for the per-op path.
        self._read_mid = timing.read_mid
        self._program_mid = timing.program_mid

    def _plane_id(self, addr: PhysAddr) -> int:
        """Plane index of a *validated* address (no bounds re-check)."""
        s0, s1, s2 = self._plane_strides
        return addr[0] * s0 + addr[1] * s1 + addr[2] * s2 + addr[3]

    def _block_state_at(self, index: int) -> BlockState:
        state = self._blocks.get(index)
        if state is None:
            state = self._blocks[index] = BlockState()
        return state

    # -- state access --------------------------------------------------------

    def block_state(self, addr: PhysAddr) -> BlockState:
        """Mutable per-block state for the block containing *addr*."""
        index = self.geometry.block_index(addr)
        state = self._blocks.get(index)
        if state is None:
            state = self._blocks[index] = BlockState()
        return state

    def erase_count(self, addr: PhysAddr) -> int:
        """P/E cycles performed on the block containing *addr*."""
        return self.block_state(addr).erase_count

    # -- array operations --------------------------------------------------------

    def prepare_read(self, addr: PhysAddr) -> Tuple[Resource, float]:
        """Validate a page read; returns ``(plane, array latency)``.

        Rejects a read of an unwritten page and draws the latency.  The
        caller then holds the plane for that long through
        :meth:`~repro.sim.Resource.hold`.
        """
        self.geometry.validate(addr)
        plane_id = self._plane_id(addr)
        state = self._block_state_at(
            plane_id * self._blocks_per_plane + addr[4])
        if not state.mask >> addr[5] & 1:
            raise FlashError(f"read of unwritten page {addr}")
        duration = (self._read_mid if self.deterministic_timing
                    else self.timing.sample_read(self._rng))
        return self.planes[plane_id], duration

    def prepare_program(self, addr: PhysAddr) -> Tuple[Resource, float]:
        """Validate and record a page program; ``(plane, array latency)``.

        Rejects a reprogram without erase and marks the page programmed
        before the caller holds the plane.
        """
        self.geometry.validate(addr)
        plane_id = self._plane_id(addr)
        state = self._block_state_at(
            plane_id * self._blocks_per_plane + addr[4])
        bit = 1 << addr[5]
        if state.mask & bit:
            raise FlashError(f"reprogram of page {addr} without erase")
        state.mask |= bit
        duration = (self._program_mid if self.deterministic_timing
                    else self.timing.sample_program(self._rng))
        return self.planes[plane_id], duration

    def prepare_erase(self, addr: PhysAddr) -> Tuple[Resource, float]:
        """Record a block erase; returns ``(plane, erase latency)``.

        Clears the block's programmed pages and bumps its erase count
        before the caller holds the plane.
        """
        self.geometry.validate(addr)
        plane_id = self._plane_id(addr)
        state = self._block_state_at(
            plane_id * self._blocks_per_plane + addr[4])
        state.mask = 0
        state.erase_count += 1
        return self.planes[plane_id], self.timing.erase_us

    def mark_programmed(self, blocks: Sequence[int]) -> None:
        """Instantly mark every page of each block in *blocks* programmed.

        Pre-conditioning hook: lets experiment setup declare prefilled
        blocks readable without simulating the fill traffic.  *blocks*
        are block indices (:meth:`FlashGeometry.block_index`), all
        range-checked before any state changes.  Each block keeps its
        own :class:`BlockState` and erase count; its mask becomes the
        backend's one full-block mask.
        """
        blocks_total = self.geometry.blocks_total
        if blocks and (min(blocks) < 0 or max(blocks) >= blocks_total):
            raise AddressError(
                f"block index in {min(blocks)}..{max(blocks)} out of "
                f"range [0, {blocks_total})")
        states = self._blocks
        full = self._full_mask
        for index in blocks:
            state = states.get(index)
            if state is None:
                state = states[index] = BlockState()
            state.mask = full

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint: per-block program/erase state + RNG.

        Programmed-page sets are stored per touched block (sorted
        ``[index, [pages...], erase_count]`` triples); untouched blocks
        need no entry.  The timing RNG position is captured so a
        non-deterministic-timing device resumes the same latency
        stream.
        """
        from ..sim import rng_state_dict

        blocks = []
        for index in sorted(self._blocks):
            state = self._blocks[index]
            blocks.append([index, offsets_of(state.mask),
                           state.erase_count])
        return {"blocks": blocks, "rng": rng_state_dict(self._rng)}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (same geometry)."""
        from ..sim import rng_load_state

        self._blocks = {}
        for index, programmed, erase_count in state["blocks"]:
            block = BlockState()
            block.programmed = (int(page) for page in programmed)
            block.erase_count = int(erase_count)
            self._blocks[int(index)] = block
        rng_load_state(self._rng, state["rng"])

    # -- reporting ---------------------------------------------------------------

    def mean_plane_utilization(self) -> float:
        """Average busy fraction across all planes."""
        if not self.planes:
            return 0.0
        return sum(p.utilization() for p in self.planes) / len(self.planes)
