"""Unit tests for the DES kernel (events, processes, conditions)."""

import contextlib
import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.executor import _drain_until
from repro.sim import Interrupt, Poll, SimulationError, Simulator
from repro.sim import kernel as kernel_module
from tests.dispatch_recorder import record_dispatch


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(7.5)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    handle = sim.process(proc(sim))
    sim.run()
    assert handle.triggered
    assert handle.value == 42


def test_process_join():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(10.0)
        return "child-done"

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(10.0, "child-done")]


def test_event_trigger_value_delivery():
    sim = Simulator()
    evt = sim.event()
    received = []

    def waiter(sim):
        value = yield evt
        received.append(value)

    def firer(sim):
        yield sim.timeout(3.0)
        evt.trigger("payload")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert received == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(1)
    with pytest.raises(SimulationError):
        evt.trigger(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_all_of_waits_for_every_event():
    sim = Simulator()
    results = []

    def worker(sim, delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent(sim):
        procs = [
            sim.process(worker(sim, 5.0, "a")),
            sim.process(worker(sim, 2.0, "b")),
            sim.process(worker(sim, 8.0, "c")),
        ]
        values = yield sim.all_of(procs)
        results.append((sim.now, values))

    sim.process(parent(sim))
    sim.run()
    assert results == [(8.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = []

    def parent(sim):
        values = yield sim.all_of([])
        done.append(values)

    sim.process(parent(sim))
    sim.run()
    assert done == [[]]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def parent(sim):
        slow = sim.timeout(10.0, "slow")
        fast = sim.timeout(1.0, "fast")
        event, value = yield sim.any_of([slow, fast])
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(1.0, "fast")]
    assert sim.now == 10.0  # the slow timeout still drains


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    def attacker(sim, victim_proc):
        yield sim.timeout(4.0)
        victim_proc.interrupt("preempt")

    proc = sim.process(victim(sim))
    sim.process(attacker(sim, proc))
    sim.run()
    assert caught == [(4.0, "preempt")]


def test_interrupt_detaches_waited_event():
    """The original timeout firing later must not resume the process."""
    sim = Simulator()
    resumptions = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
            resumptions.append("timeout")
        except Interrupt:
            resumptions.append("interrupt")
            yield sim.timeout(500.0)
            resumptions.append("after-sleep")

    proc = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert resumptions == ["interrupt", "after-sleep"]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_uncaught_interrupt_terminates_process():
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(100.0)

    proc = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(2.0)
        proc.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert proc.triggered
    assert not proc.is_alive


def test_run_until_stops_clock():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    end = sim.run(until=35.0)
    assert end == pytest.approx(35.0)
    assert sim.now == pytest.approx(35.0)


def test_run_until_beyond_queue_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    sim.process(proc(sim))
    sim.run(until=100.0)
    assert sim.now == pytest.approx(100.0)


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_peek_dispatches_one_instant():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "b")
    sim.schedule(7.0, seen.append, "c")
    assert sim.peek() == pytest.approx(3.0)
    assert sim.run(until=sim.peek()) == 3.0
    assert sim.now == 3.0 and seen == ["a", "b"]
    assert sim.peek() == pytest.approx(7.0)
    assert sim.run(until=sim.peek()) == 7.0
    assert seen == ["a", "b", "c"] and sim.peek() is None
    assert sim.run() == 7.0


def test_failed_event_propagates_into_process():
    sim = Simulator()
    caught = []

    def waiter(sim, evt):
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    evt = sim.event()
    sim.process(waiter(sim, evt))
    sim.schedule(1.0, lambda: evt.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    seen = []
    evt = sim.event()
    evt.trigger("x")
    sim.run()
    evt.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


# ---------------------------------------------------------------------------
# Simulator.wait_until / Poll: a polling loop without a resume per tick.
# ---------------------------------------------------------------------------

def _dispatch_stream(scenario):
    """``(time, seq)`` of every entry dispatched, and the result."""
    stream = []
    with record_dispatch(lambda entry: stream.append(entry[:2])):
        result = scenario()
    return stream, result


def _polling_scenario(use_poll):
    """Waiters polling a counter that other processes bump on the same
    timestamps; each failed tick also spawns a process, so per-tick
    side effects interleave with the poll's own heap entries."""
    sim = Simulator()
    trace = []
    state = {"count": 0}

    def bumper(period, times):
        for _ in range(times):
            yield sim.timeout(period)
            state["count"] += 1
            trace.append((sim.now, "bump", state["count"]))

    def blip(name):
        trace.append((sim.now, "blip", name))
        return
        yield  # pragma: no cover - makes this a generator

    def make_check(name, target):
        def check():
            if state["count"] >= target:
                return (name, state["count"])
            trace.append((sim.now, "miss", name))
            sim.process(blip(name))
            return None
        return check

    def waiter(name, interval, target):
        check = make_check(name, target)
        if use_poll:
            value = yield from sim.wait_until(interval, check)
        else:
            value = check()
            while value is None:
                yield sim.timeout(interval)
                value = check()
        trace.append((sim.now, "done", value))
        yield sim.timeout(0.25)
        trace.append((sim.now, "after", name))

    sim.process(bumper(0.5, 12))
    sim.process(bumper(1.0, 4))
    sim.process(waiter("a", 0.5, 6))
    sim.process(waiter("b", 1.0, 9))
    sim.process(waiter("c", 0.25, 0))    # passes at once
    sim.run()
    return trace, sim.now, sim._seq


def test_wait_until_matches_timeout_loop_dispatch_stream():
    timeout_stream, timeout_result = _dispatch_stream(
        lambda: _polling_scenario(use_poll=False))
    poll_stream, poll_result = _dispatch_stream(
        lambda: _polling_scenario(use_poll=True))
    assert poll_result == timeout_result
    assert poll_stream == timeout_stream
    trace = poll_result[0]
    assert any(entry[1] == "miss" for entry in trace)
    # Ties: a bump and a poll tick land on the same timestamp.
    bump_times = {entry[0] for entry in trace if entry[1] == "bump"}
    assert bump_times & {entry[0] for entry in trace if entry[1] == "miss"}


def test_wait_until_passing_check_schedules_nothing():
    sim = Simulator()
    calls = []

    def check():
        calls.append(sim.now)
        return "ready"

    def proc():
        value = yield from sim.wait_until(10.0, check)
        return value

    handle = sim.process(proc())
    sim.run()
    assert handle.value == "ready"
    assert calls == [0.0]
    assert sim.now == 0.0
    assert sim._seq == 2            # bootstrap + the process's completion


def test_wait_until_delivers_check_value():
    sim = Simulator()
    ticks = []

    def check():
        ticks.append(sim.now)
        return {"at": sim.now} if len(ticks) == 4 else None

    def proc():
        value = yield from sim.wait_until(2.5, check)
        return value, sim.now

    handle = sim.process(proc())
    sim.run()
    assert ticks == [0.0, 2.5, 5.0, 7.5]
    assert handle.value == ({"at": 7.5}, 7.5)


def test_wait_until_throws_check_error_into_waiter():
    sim = Simulator()
    ticks = []
    caught = []

    def check():
        ticks.append(sim.now)
        if len(ticks) == 3:
            raise LookupError("starved")
        return None

    def proc():
        try:
            yield from sim.wait_until(1.0, check)
        except LookupError as exc:
            caught.append((sim.now, str(exc)))

    handle = sim.process(proc())
    sim.run()
    assert caught == [(2.0, "starved")]
    assert handle.triggered and sim.now == 2.0


def test_interrupted_wait_until_dispatches_once_more_and_stops():
    """Like a detached timeout: the pending tick still pops, once, and
    the check never runs again."""
    ticks = []
    events = []

    def scenario():
        sim = Simulator()

        def check():
            ticks.append(sim.now)
            return None

        def victim():
            try:
                yield from sim.wait_until(10.0, check)
            except Interrupt:
                events.append(("interrupted", sim.now))

        proc = sim.process(victim())

        def attacker():
            yield sim.timeout(15.0)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        return sim

    stream, sim = _dispatch_stream(scenario)
    assert ticks == [0.0, 10.0]
    assert events == [("interrupted", 15.0)]
    # The tick armed at t=10 for t=20 is the last entry popped.
    assert stream[-1][0] == 20.0
    assert sim.now == 20.0 and sim.peek() is None


def test_poll_rejects_manual_trigger_and_negative_interval():
    from repro.sim import Poll

    sim = Simulator()
    poll = Poll(sim, 1.0, lambda: None)
    with pytest.raises(SimulationError):
        poll.trigger()
    with pytest.raises(SimulationError):
        poll.fail(RuntimeError())
    with pytest.raises(ValueError):
        Poll(sim, -1.0, lambda: None)


# ---------------------------------------------------------------------------
# The same-instant lane: entries due at ``now`` skip the heap.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("resume", ["run", "drain"])
def test_raise_mid_heap_instant_keeps_heap_entries_before_lane(resume):
    """Heap entries A, B at t=1; A pushes lane entry L, then raises."""
    sim = Simulator()
    order = []
    done = sim.event()
    done.add_callback(lambda event: order.append("L"))

    def first():
        order.append("A")
        done.trigger()
        raise KeyError("A")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "B")
    sim.schedule(2.0, order.append, "C")
    with pytest.raises(KeyError):
        sim.run()
    assert order == ["A"] and sim.now == 1.0
    if resume == "run":
        sim.run()
    else:
        _drain_until(sim, math.inf)
    assert order == ["A", "B", "L", "C"]


@pytest.mark.parametrize("resume", ["run", "drain"])
def test_raise_mid_lane_leaves_the_rest_queued(resume):
    sim = Simulator()
    order = []

    def entry(tag):
        order.append(tag)
        if tag == 2 and order.count(2) == 1:
            raise KeyError(tag)

    sim.schedule(4.0, order.append, "later")
    for tag in range(5):
        sim.schedule(0.0, entry, tag)
    with pytest.raises(KeyError):
        sim.run()
    assert order == [0, 1, 2]
    assert sim.peek() == sim.now == 0.0
    assert len(sim.pending_summary()) == 3
    if resume == "run":
        sim.run()
    else:
        _drain_until(sim, math.inf)
    assert order == [0, 1, 2, 3, 4, "later"]
    assert sim.now == 4.0


def test_snapshot_refuses_lane_only_queue_and_names_it():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker(), name="worker")
    assert not sim._queue and sim.peek() == 0.0
    with pytest.raises(SimulationError,
                       match="1 callback.*process 'worker' resume"):
        sim.snapshot_state()
    with pytest.raises(SimulationError):
        sim.restore_state({"now": 0.0, "seq": 0})


def test_peek_returns_now_while_lane_holds_entries():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.schedule(10.0, lambda: None)
    sim.run(until=sim.peek())
    assert sim.peek() == 10.0
    sim.event().trigger()
    assert sim.peek() == sim.now == 5.0


def test_heap_entries_at_now_dispatch_before_the_lane():
    sim = Simulator()
    order = []

    def first():
        order.append("A")
        sim.schedule(0.0, order.append, "L")
        sim.schedule(1.0, order.append, "next")

    sim.schedule(3.0, first)
    sim.schedule(3.0, order.append, "B")
    assert sim.run(until=sim.peek()) == 3.0
    assert order == ["A", "B", "L"] and sim.peek() == 4.0
    sim.run()
    assert order == ["A", "B", "L", "next"]


def test_run_until_in_the_past_raises_and_keeps_the_queue():
    """The clock never runs backwards: a stop before ``now`` raises and
    leaves the heap and the same-instant lane as they were."""
    sim = Simulator()
    seen = []

    def at_five():
        sim.schedule(0.0, lambda: seen.append(sim.now))
        raise KeyError("stop")

    sim.schedule(5.0, at_five)
    sim.schedule(7.0, seen.append, "later")
    with pytest.raises(KeyError):
        sim.run()
    assert sim.peek() == 5.0 and sim._queue and sim._lane
    heap, lane = list(sim._queue), list(sim._lane)
    with pytest.raises(SimulationError, match="before the current time"):
        sim.run(until=2.0)
    assert sim.now == 5.0 and seen == []
    assert sim._queue == heap and list(sim._lane) == lane
    assert sim.run(until=5.0) == 5.0 and seen == [5.0]
    sim.run()
    assert seen == [5.0, "later"]


def test_absorbed_delay_dispatches_in_seq_order():
    """``now + delay == now`` is due now, behind earlier lane entries."""
    sim = Simulator()
    order = []
    big = 2.0 ** 53

    def proc():
        yield sim.timeout(big)
        sim.schedule(0.0, order.append, "zero")
        sim.schedule(1.0, order.append, "absorbed")    # rounds to now
        sim.schedule(3.0, order.append, "later")       # rounds up
        sim.event().trigger()
        sim.schedule(0.0, order.append, "last")

    sim.process(proc())
    sim.run()
    assert order == ["zero", "absorbed", "last", "later"]
    assert sim.now == big + 4.0


# -- property: lane + heap dispatch == one heap ordered by (time, seq) -------

_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 3.0])
_SLOT = st.integers(0, 2)
_OP = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("trigger"), _SLOT),
    st.tuples(st.just("fail"), _SLOT),
    st.tuples(st.just("wait"), _SLOT),
    st.tuples(st.just("late_callback"), _SLOT),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("poll"), _DELAYS, st.integers(1, 3)),
)


def _reference_run(sim, record):
    """Heap-only dispatch: every entry, from either lane or the heap, by
    ``(time, seq)``."""
    queue = sim._queue
    lane = sim._lane
    polls = sim._polls
    while True:
        while lane:
            heapq.heappush(queue, lane.popleft())
        while polls:
            heapq.heappush(queue, polls.popleft())
        if not queue:
            return
        entry = heapq.heappop(queue)
        sim.now = sim._now = entry[0]
        record(entry)
        entry[2](*entry[3])


def _run_program(programs, big_clock, drive):
    """Run *programs* (op lists, one per process) on a fresh kernel.

    *drive* is ``"run"``, ``"drain"`` (the fuzzer's per-instant loop)
    or ``"reference"``.  Returns the
    ``(time, seq, label)`` of every dispatched entry, the program's own
    trace and the final sequence counter.
    """
    stream = []
    trace = []

    def record(entry):
        stream.append((entry[0], entry[1],
                       Simulator._describe_callback(entry[2])))

    watch = (contextlib.nullcontext() if drive == "reference"
             else record_dispatch(record))
    with watch:
        sim = Simulator()
        slots = [sim.event() for _ in range(3)]
        procs = []
        budget = [12]

        def note(*what):
            trace.append((sim.now,) + what)

        def actor(index, ops):
            for op in ops:
                kind = op[0]
                try:
                    if kind == "timeout":
                        yield sim.timeout(op[1])
                    elif kind in ("trigger", "fail"):
                        event = slots[op[1]]
                        if not event.triggered:
                            if kind == "trigger":
                                event.trigger(index)
                            else:
                                event.fail(RuntimeError(index))
                    elif kind == "wait":
                        value = yield slots[op[1]]
                        note(index, "woke", value)
                    elif kind == "late_callback":
                        slots[op[1]].add_callback(
                            lambda event, i=index: note(i, "callback"))
                    elif kind == "spawn" and budget[0] > 0:
                        budget[0] -= 1
                        spawn(op[1])
                    elif kind == "interrupt" and procs:
                        target = procs[op[1] % len(procs)]
                        if target is not procs[index]:
                            target.interrupt(index)
                    elif kind == "schedule":
                        sim.schedule(op[1], note, index, "scheduled")
                    elif kind == "poll":
                        ticks = iter(range(op[2]))
                        value = yield from sim.wait_until(
                            op[1], lambda: None if next(ticks, None)
                            is not None else "ready")
                        note(index, "polled", value)
                except (Interrupt, RuntimeError) as exc:
                    note(index, "caught", type(exc).__name__)
            note(index, "done")

        def spawn(program):
            index = len(procs)
            procs.append(sim.process(
                actor(index, programs[program % len(programs)]),
                name=f"p{index}"))

        def root():
            if big_clock:
                yield sim.timeout(2.0 ** 53)
            for program in range(len(programs)):
                spawn(program)

        sim.process(root(), name="root")
        if drive == "run":
            sim.run()
        elif drive == "drain":
            _drain_until(sim, math.inf)
        else:
            _reference_run(sim, record)
    return stream, trace, sim._seq


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs=st.lists(st.lists(_OP, max_size=8), min_size=1,
                         max_size=4),
       big_clock=st.booleans())
def test_lane_dispatch_matches_heap_only_reference(programs, big_clock):
    reference = _run_program(programs, big_clock, "reference")
    assert _run_program(programs, big_clock, "run") == reference
    assert _run_program(programs, big_clock, "drain") == reference
    assert reference[0], "a program always dispatches its bootstrap"


# ---------------------------------------------------------------------------
# The poll lane: poll ticks at or after its tail's time skip the heap.
# ---------------------------------------------------------------------------

#: 10 us polls beside 50 us ones, with timeouts and scheduled callbacks
#: that land exactly on the 10 us grid.
_GRID_PROGRAMS = [
    [("poll", 10.0, 7), ("timeout", 10.0), ("poll", 10.0, 3)],
    [("poll", 50.0, 2), ("schedule", 20.0), ("poll", 10.0, 4)],
    [("timeout", 30.0), ("poll", 10.0, 5), ("schedule", 10.0),
     ("timeout", 50.0)],
    [("schedule", 40.0), ("poll", 50.0, 1), ("timeout", 20.0),
     ("poll", 10.0, 2)],
]


def test_mixed_interval_polls_match_heap_only_reference(monkeypatch):
    reference = _run_program(_GRID_PROGRAMS, False, "reference")
    assert _run_program(_GRID_PROGRAMS, False, "drain") == reference
    heap_polls = []
    push = kernel_module.heappush

    def counting_push(queue, entry):
        if isinstance(entry[2], Poll):
            heap_polls.append(entry[:2])
        push(queue, entry)

    monkeypatch.setattr(kernel_module, "heappush", counting_push)
    assert _run_program(_GRID_PROGRAMS, False, "run") == reference
    stream = reference[0]
    poll_times = {time for time, _, label in stream
                  if label.startswith("poll")}
    other_times = {time for time, _, label in stream
                   if not label.startswith("poll")}
    # Timeouts and callbacks tie with poll ticks on the grid, and the
    # 10 us ticks behind a 50 us tick fall back to the heap, while the
    # others ride the poll lane.
    assert poll_times & other_times
    poll_ticks = [label for _, _, label in stream
                  if label.startswith("poll")]
    assert 0 < len(heap_polls) < len(poll_ticks)


def _parked_poller(sim, name, interval):
    def poller():
        yield from sim.wait_until(interval, lambda: None)

    return sim.process(poller(), name=name)


def test_snapshot_refuses_a_parked_poll_and_names_its_waiter():
    sim = Simulator()
    _parked_poller(sim, "poller", 10.0)
    sim.run(until=15.0)
    assert len(sim._polls) == 1 and not sim._queue and not sim._lane
    with pytest.raises(SimulationError,
                       match="1 callback.*poll resuming process 'poller'"):
        sim.snapshot_state()
    with pytest.raises(SimulationError):
        sim.restore_state({"now": 0.0, "seq": 0})


def test_pending_summary_merges_poll_lane_and_heap_in_order():
    sim = Simulator()

    def early():
        pass

    def tied():
        pass

    def late():
        pass

    sim.schedule(10.0, tied)
    _parked_poller(sim, "a", 10.0)
    _parked_poller(sim, "b", 15.0)
    sim.schedule(5.0, early)
    sim.schedule(20.0, late)
    sim.run(until=0.0)
    sim.schedule(10.0, late)
    assert len(sim._polls) == 2 and len(sim._queue) == 4
    lines = sim.pending_summary()
    expected = [("t=5.000us", "early"), ("t=10.000us", "tied"),
                ("t=10.000us", "poll resuming process 'a'"),
                ("t=10.000us", "late"),
                ("t=15.000us", "poll resuming process 'b'"),
                ("t=20.000us", "late")]
    assert len(lines) == len(expected)
    for line, (time, what) in zip(lines, expected):
        assert line.startswith(time + " ") and line.endswith(what), line


def test_peek_sees_the_poll_lane_head():
    sim = Simulator()
    sim.schedule(30.0, lambda: None)
    _parked_poller(sim, "poller", 10.0)
    sim.run(until=0.0)
    assert sim._polls[0][0] == 10.0 and sim._queue[0][0] == 30.0
    assert sim.peek() == 10.0
    sim.run(until=25.0)
    assert sim.peek() == 30.0
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 27.0


def _grid_run(stops):
    """Dispatch stream of 10 us polls beside a 25 us timeout chain, run
    with a stop at each of *stops* and then to the end."""
    stream = []
    with record_dispatch(lambda entry: stream.append(entry[:2])):
        sim = Simulator()

        def poller(ticks):
            left = iter(range(ticks))
            yield from sim.wait_until(
                10.0, lambda: None if next(left, None) is not None
                else "ready")

        def chain():
            for _ in range(4):
                yield sim.timeout(25.0)

        sim.process(poller(6))
        sim.process(poller(3))
        sim.process(chain())
        for stop in stops:
            assert sim.run(until=stop) == stop
            assert sim._polls and sim.peek() > stop
        sim.run()
    return stream, sim.now, sim._seq


def test_run_until_between_ticks_resumes_the_same_stream():
    assert _grid_run([25.0, 35.0]) == _grid_run([])


def test_waiters_on_one_interval_never_touch_the_heap(monkeypatch):
    pushes = []
    push = kernel_module.heappush

    def counting_push(queue, entry):
        pushes.append(entry[:2])
        push(queue, entry)

    monkeypatch.setattr(kernel_module, "heappush", counting_push)
    sim = Simulator()
    done = []

    def waiter(index):
        left = iter(range(index % 5 + 1))
        value = yield from sim.wait_until(
            10.0, lambda: None if next(left, None) is not None else index)
        done.append(value)

    for index in range(64):
        sim.process(waiter(index))
    sim.run()
    assert sorted(done) == list(range(64))
    assert sim.now == 50.0 and pushes == []
