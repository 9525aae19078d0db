"""Watch every entry the DES kernel dispatches, heap or lane, in order."""

import contextlib

from repro.sim import kernel as kernel_module


@contextlib.contextmanager
def record_dispatch(record):
    """Call *record(entry)* for each ``(time, seq, fn, args)`` dispatched.

    Covers entries popped off the heap and off the same-instant lane, in
    dispatch order, for every :class:`~repro.sim.Simulator` built inside
    the block (the lane is a per-simulator ``deque``, so one built
    before the block is only watched on its heap).
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
