"""Host interface: NVMe-style submission with a bounded queue depth.

The host interface admits at most ``queue_depth`` outstanding I/O
requests (paper: QD = 64) and moves request data over a PCIe-class host
link.  The FTL completes requests; completion frees a queue slot for the
next submission.
"""

from __future__ import annotations

from typing import Generator

from ..errors import ConfigError
from ..sim import Link, Resource, Simulator

__all__ = ["HostInterface", "PAPER_HOST_BW", "PAPER_QUEUE_DEPTH"]

#: PCIe 3.0 x8 (paper Table 1) ~= 7.88 GB/s; modeled as 8 GB/s.
PAPER_HOST_BW = 8000.0
#: Paper: outstanding-request queue depth of 64.
PAPER_QUEUE_DEPTH = 64

#: NVMe command processing overhead per request (us).
DEFAULT_CMD_LATENCY_US = 1.0


class HostInterface:
    """Submission queue slots plus the host data link."""

    def __init__(self, sim: Simulator, queue_depth: int = PAPER_QUEUE_DEPTH,
                 bandwidth: float = PAPER_HOST_BW,
                 cmd_latency_us: float = DEFAULT_CMD_LATENCY_US):
        if queue_depth < 1:
            raise ConfigError(f"queue depth must be >= 1: {queue_depth}")
        if bandwidth <= 0:
            raise ConfigError(f"host bandwidth must be positive: {bandwidth}")
        if cmd_latency_us < 0:
            raise ConfigError(f"negative command latency: {cmd_latency_us}")
        self.sim = sim
        self.queue_depth = queue_depth
        self.cmd_latency_us = cmd_latency_us
        self.link = Link(sim, bandwidth, name="host_link")
        self._slots = Resource(sim, queue_depth, name="sq_slots")
        self.submitted = 0
        self.completed = 0

    @property
    def outstanding(self) -> int:
        """Requests currently admitted but not yet completed."""
        return self._slots.in_use

    def submit(self) -> Generator:
        """Generator: wait for a queue slot and pay command overhead.

        A request counts as submitted the moment it owns a queue slot --
        the command-processing overhead is paid while already admitted,
        so ``submitted - completed == outstanding`` holds at every
        instant.
        """
        grant = self._slots.acquire()
        counted = False
        done = False
        try:
            yield grant
            self.submitted += 1
            counted = True
            if self.cmd_latency_us > 0:
                yield self.sim.timeout(self.cmd_latency_us)
            done = True
        finally:
            # Interrupted while admitting: roll the admission back so the
            # queue slot (and the submitted/outstanding invariant) is not
            # leaked.  The caller pairs complete() only with a submit()
            # that returned normally.
            if not done:
                self._slots.cancel(grant)
                if counted:
                    self.submitted -= 1

    def complete(self) -> None:
        """Release the queue slot of a finished request."""
        self._slots.release()
        self.completed += 1

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint counters + link meters; all slots must be free."""
        if self.outstanding:
            raise ConfigError(
                f"cannot snapshot host interface with {self.outstanding} "
                "outstanding request(s)")
        return {"submitted": self.submitted,
                "completed": self.completed,
                "link": self.link.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint."""
        self.submitted = int(state["submitted"])
        self.completed = int(state["completed"])
        self.link.load_state(state["link"])
