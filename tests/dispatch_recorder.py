"""Watch every entry the DES kernel dispatches, heap or lanes, in order."""

import contextlib

from repro.sim import kernel as kernel_module


@contextlib.contextmanager
def record_dispatch(record):
    """Call *record(entry)* for each ``(time, seq, fn, args)`` dispatched.

    Covers entries popped off the heap, the same-instant lane and the
    poll lane, in dispatch order, for every :class:`~repro.sim.Simulator`
    built inside the block.  Both lanes are per-simulator ``deque``
    objects, so one swapped class records them both, and a simulator
    built before the block is only watched on its heap.
    """
    pop = kernel_module.heappop
    lane_type = kernel_module.deque

    def recording_pop(queue):
        entry = pop(queue)
        record(entry)
        return entry

    class RecordingLane(lane_type):
        def popleft(self):
            entry = super().popleft()
            record(entry)
            return entry

    kernel_module.heappop = recording_pop
    kernel_module.deque = RecordingLane
    try:
        yield
    finally:
        kernel_module.heappop = pop
        kernel_module.deque = lane_type
