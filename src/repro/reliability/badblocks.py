"""Bad-block retirement feeding the superblock SRT/RBT remap layer.

Each channel owns a :class:`~repro.superblock.RecycleBlockTable` of
spare physical blocks (withdrawn from the FTL's free pools at build
time) and a :class:`~repro.superblock.SuperblockRemapTable` mapping a
worn-out logical block position onto its replacement spare.  The remap
is applied inside the datapath's address-resolution hook, so the FTL
keeps addressing the logical position -- exactly the paper's Sec 5
hardware-table design, reused at single-block granularity.

When a block wears out and its channel has no spare left (or the SRT is
full), the block is retired for good via
:meth:`~repro.ftl.blocks.BlockManager.mark_bad`.
"""

from __future__ import annotations

from typing import List, Optional

from ..flash import FlashGeometry, PhysAddr
from ..superblock import RecycleBlockTable, SuperblockRemapTable

__all__ = ["BadBlockManager"]


class BadBlockManager:
    """Per-channel spare pools and wear-out remap tables."""

    def __init__(self, geometry: FlashGeometry, blocks,
                 spares_per_channel: int = 2,
                 srt_capacity: Optional[int] = 64):
        self.geometry = geometry
        self.blocks = blocks
        self.rbt: List[RecycleBlockTable] = [
            RecycleBlockTable(c) for c in range(geometry.channels)
        ]
        self.srt: List[SuperblockRemapTable] = [
            SuperblockRemapTable(c, srt_capacity)
            for c in range(geometry.channels)
        ]
        self.remapped_blocks = 0
        self.retired_blocks = 0
        self.spares_provisioned = 0
        self._withdraw_spares(spares_per_channel)

    # -- spare provisioning -------------------------------------------------

    def _channel_planes(self, channel: int) -> List[int]:
        geometry = self.geometry
        return [
            geometry.plane_index(PhysAddr(channel, way, die, plane, 0, 0))
            for way in range(geometry.ways)
            for die in range(geometry.dies)
            for plane in range(geometry.planes)
        ]

    def _withdraw_spares(self, per_channel: int) -> None:
        """Pull spare blocks out of the FTL free pools, per channel.

        Spares rotate across the channel's planes; a plane whose free
        pool is already at the GC reserve contributes nothing (the
        device never trades write liveness for spares).
        """
        if per_channel <= 0:
            return
        for channel in range(self.geometry.channels):
            planes = self._channel_planes(channel)
            taken = 0
            for round_idx in range(per_channel * len(planes)):
                if taken >= per_channel:
                    break
                plane = planes[round_idx % len(planes)]
                spare = self.blocks.withdraw_spare(plane)
                if spare is not None:
                    self.rbt[channel].add(self.blocks.info(spare).addr)
                    taken += 1
                    self.spares_provisioned += 1

    # -- address resolution ---------------------------------------------------

    def resolve(self, addr: PhysAddr) -> PhysAddr:
        """Apply the channel's SRT remap to *addr* (identity if unmapped)."""
        table = self.srt[addr.channel]
        if not table.active_entries:
            return addr
        target = table.lookup(self.geometry.block_index(addr))
        if isinstance(target, PhysAddr):
            return target._replace(page=addr.page)
        return addr

    # -- retirement -------------------------------------------------------------

    def retire(self, logical: PhysAddr,
               mark_bad_addr: Optional[PhysAddr] = None) -> str:
        """Handle a worn-out block at *logical*'s position.

        Tries to remap the position onto a spare from the channel's RBT
        (replacing any existing remap entry, which collapses remap
        chains); falls back to marking the FTL block bad.  Returns
        ``"remapped"`` or ``"retired"``.
        """
        channel = logical.channel
        key = self.geometry.block_index(logical)
        spare = self.rbt[channel].take()
        if spare is not None:
            table = self.srt[channel]
            table.remove(key)
            if table.insert(key, spare):
                self.remapped_blocks += 1
                return "remapped"
            # Table full: the spare cannot be wired in; keep it for a
            # position that still has (or can get) an entry.
            self.rbt[channel].add(spare)
        self.blocks.mark_bad(self.geometry.block_index(
            mark_bad_addr if mark_bad_addr is not None else logical))
        self.retired_blocks += 1
        return "retired"

    # -- checkpointing ------------------------------------------------------

    @staticmethod
    def _encode_entry(entry):
        """JSON encoding for table entries (PhysAddr -> 6-int list)."""
        if isinstance(entry, PhysAddr):
            return list(entry)
        return entry

    @staticmethod
    def _decode_entry(entry):
        """Inverse of :meth:`_encode_entry` (lists become PhysAddr)."""
        if isinstance(entry, (list, tuple)):
            return PhysAddr(*(int(field) for field in entry))
        return int(entry)

    def state_dict(self) -> dict:
        """JSON-able checkpoint of all per-channel RBT/SRT tables."""
        return {
            "rbt": [table.state_dict(self._encode_entry)
                    for table in self.rbt],
            "srt": [table.state_dict(self._encode_entry)
                    for table in self.srt],
            "remapped_blocks": self.remapped_blocks,
            "retired_blocks": self.retired_blocks,
            "spares_provisioned": self.spares_provisioned,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (same geometry)."""
        for table, table_state in zip(self.rbt, state["rbt"]):
            table.load_state(table_state, self._decode_entry)
        for table, table_state in zip(self.srt, state["srt"]):
            table.load_state(table_state, self._decode_entry)
        self.remapped_blocks = int(state["remapped_blocks"])
        self.retired_blocks = int(state["retired_blocks"])
        self.spares_provisioned = int(state["spares_provisioned"])

    @property
    def spares_remaining(self) -> int:
        """Spare blocks still pooled across all channels."""
        return sum(len(table) for table in self.rbt)

    @property
    def active_remaps(self) -> int:
        """Live SRT entries across all channels."""
        return sum(table.active_entries for table in self.srt)
