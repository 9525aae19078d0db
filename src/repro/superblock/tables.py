"""Hardware tables inside the decoupled flash controller (paper Sec 5).

* :class:`RecycleBlockTable` (RBT) -- the per-controller "recycling bin"
  of good sub-blocks salvaged from dead superblocks (plus, for the
  reservation policy, pre-provisioned blocks).
* :class:`SuperblockRemapTable` (SRT) -- the per-controller remap of a
  dead sub-block's address onto a recycled block.  Entries are
  persistent for the life of the dynamic superblock, so the table's
  capacity bounds how many remaps a controller can hold (Fig 16).

Both tables are maintained *per decoupled controller* (per channel) and
are invisible to the FTL.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..errors import ConfigError, MappingError

__all__ = ["RecycleBlockTable", "SuperblockRemapTable"]


class RecycleBlockTable:
    """FIFO pool of recyclable blocks for one flash channel.

    Each entry is an opaque block descriptor chosen by the caller (the
    superblock manager stores ``(superblock, channel)`` sub-blocks).
    """

    def __init__(self, channel: int):
        self.channel = channel
        self._entries: Deque = deque()
        self.total_added = 0
        self.total_taken = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, block) -> None:
        """Deposit a recyclable block."""
        self._entries.append(block)
        self.total_added += 1

    def take(self):
        """Withdraw the oldest recyclable block, or None if empty."""
        if not self._entries:
            return None
        self.total_taken += 1
        return self._entries.popleft()

    def peek_all(self) -> List:
        """Snapshot of the pool (oldest first)."""
        return list(self._entries)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self, encode=None) -> dict:
        """JSON-able checkpoint; *encode* maps opaque entries to JSON.

        Entries keep their FIFO order.  The default encoder passes
        entries through unchanged (fine for ints/strings); callers
        holding richer descriptors (e.g. physical addresses) supply an
        encoder.
        """
        encode = encode or (lambda entry: entry)
        return {"entries": [encode(entry) for entry in self._entries],
                "total_added": self.total_added,
                "total_taken": self.total_taken}

    def load_state(self, state: dict, decode=None) -> None:
        """Restore a :meth:`state_dict` checkpoint."""
        decode = decode or (lambda entry: entry)
        self._entries = deque(decode(entry) for entry in state["entries"])
        self.total_added = int(state["total_added"])
        self.total_taken = int(state["total_taken"])


class SuperblockRemapTable:
    """Bounded remap table: dead sub-block address -> recycled block.

    ``capacity`` is the number of entries the hardware provides (the
    paper's sweep: 64 .. 2048 entries, ~32 bits each).  ``capacity``
    of ``None`` models an infinite table (used to measure the active-
    entry demand curve, Fig 16(b)).
    """

    def __init__(self, channel: int, capacity: Optional[int] = 1024):
        if capacity is not None and capacity < 1:
            raise ConfigError(f"SRT capacity must be >= 1: {capacity}")
        self.channel = channel
        self.capacity = capacity
        self._map: Dict[Hashable, Hashable] = {}
        self.inserts = 0
        self.rejected = 0
        #: (event_index, active_entries) samples for Fig 16(b).
        self.occupancy_log: List[Tuple[int, int]] = []

    @property
    def active_entries(self) -> int:
        """Entries currently holding a remap."""
        return len(self._map)

    @property
    def is_full(self) -> bool:
        """Whether another insert would exceed capacity."""
        return (self.capacity is not None
                and len(self._map) >= self.capacity)

    def lookup(self, key: Hashable) -> Hashable:
        """Resolved address for *key* (identity when unmapped)."""
        return self._map.get(key, key)

    def insert(self, key: Hashable, target: Hashable) -> bool:
        """Record ``key -> target``; False if the table is full."""
        if key in self._map:
            raise MappingError(f"SRT already remaps {key!r}")
        if self.is_full:
            self.rejected += 1
            return False
        self._map[key] = target
        self.inserts += 1
        self.occupancy_log.append((self.inserts, len(self._map)))
        return True

    def remove(self, key: Hashable) -> None:
        """Drop a remap entry (when the dynamic superblock dies)."""
        self._map.pop(key, None)

    def entries(self) -> Dict[Hashable, Hashable]:
        """Copy of the live remap entries."""
        return dict(self._map)

    # -- checkpointing ------------------------------------------------------

    def state_dict(self, encode=None) -> dict:
        """JSON-able checkpoint; *encode* maps opaque keys/values to JSON.

        Remap entries are stored as ``[key, target]`` pairs in insertion
        order (dict order), so a restore reproduces the same iteration
        order.
        """
        encode = encode or (lambda entry: entry)
        return {"map": [[encode(key), encode(target)]
                        for key, target in self._map.items()],
                "inserts": self.inserts,
                "rejected": self.rejected,
                "occupancy_log": [[i, n] for i, n in self.occupancy_log]}

    def load_state(self, state: dict, decode=None) -> None:
        """Restore a :meth:`state_dict` checkpoint."""
        decode = decode or (lambda entry: entry)
        self._map = {decode(key): decode(target)
                     for key, target in state["map"]}
        self.inserts = int(state["inserts"])
        self.rejected = int(state["rejected"])
        self.occupancy_log = [(int(i), int(n))
                              for i, n in state["occupancy_log"]]
