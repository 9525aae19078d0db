"""Watch every entry the DES kernel dispatches, heap or lane, in order."""

import contextlib
import hashlib
import struct

from repro.sim import kernel as kernel_module

_KEY = struct.Struct("<dq").pack


@contextlib.contextmanager
def record_dispatch(record):
    """Call *record(entry)* for each ``(time, seq, fn, args)`` dispatched.

    Covers entries popped off the heap and the same-instant lane, in
    dispatch order, for every :class:`~repro.sim.Simulator` built inside
    the block.  The lane is a per-simulator ``deque``, so a swapped
    class records it, and a simulator built before the block is only
    watched on its heap.  A poll parked on a wake list holds no entry,
    so nothing is recorded for it until its recheck dispatches.
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


def fingerprint(run):
    """``(stream hash, end-state hash)`` of one scenario run.

    Every entry the kernel dispatches, from its heap or its
    same-instant lane, is fed to the stream hash in dispatch order;
    *run* builds its simulator and returns the scenario's end state,
    whose ``repr`` is the end-state hash.
    """
    digest = hashlib.sha256()
    update = digest.update
    with record_dispatch(lambda entry: update(_KEY(entry[0], entry[1]))):
        end_state = run()
    end = hashlib.sha256(repr(end_state).encode()).hexdigest()[:16]
    return digest.hexdigest()[:16], end
