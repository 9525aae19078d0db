"""Unit tests for the DES kernel (events, processes, conditions)."""

import contextlib
import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.executor import _drain_until
from repro.sim import Interrupt, SimulationError, Simulator, WakeList
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
# Simulator.wait_until / Poll: a wait parked on wake lists.
# ---------------------------------------------------------------------------

def _dispatch_stream(scenario):
    """``(time, seq)`` of every entry dispatched, and the result."""
    stream = []
    with record_dispatch(lambda entry: stream.append(entry[:2])):
        result = scenario()
    return stream, result


def _wait_every_10us(sim, check, parked, wakes, on_skip=None):
    """Wait for *check*: parked on *wakes* with *parked*, else as a
    ``yield sim.timeout(10)`` loop, the reference a parked wait must
    match."""
    if parked:
        return (yield from sim.wait_until(10.0, check, wake=(wakes,),
                                          on_skip=on_skip))
    value = check()
    while value is None:
        yield sim.timeout(10.0)
        value = check()
    return value


def _shared_grid_scenario(parked):
    """Two waits on one 10 us grid: ``a`` fails its check at t=0; ``b``
    is spawned at t=20 from a timeout's dispatch, so its inline check
    runs from the same-instant lane after ``a``'s tick at 20 has gone
    by.  The state turns ready at t=25, between two grid instants and
    before ``b`` has ticked once, so a wait that parked only after its
    first tick would miss the notify and resume out of order.

    With *parked* the waits park on a wake list that the setter
    notifies; otherwise each is a ``yield sim.timeout(10)`` loop.
    Returns the trace, the end clock and each wait's tick count: its
    check calls plus the ticks it skipped while parked.
    """
    sim = Simulator()
    wakes = WakeList()
    state = {"ready": False}
    ticks = {"a": 0, "b": 0}
    trace = []

    def waiter(name):
        def check():
            ticks[name] += 1
            return (name, sim.now) if state["ready"] else None

        def skipped(count):
            ticks[name] += count

        value = yield from _wait_every_10us(sim, check, parked, wakes,
                                            skipped)
        trace.append((sim.now, "resumed", value))

    def spawner():
        yield sim.timeout(20.0)
        sim.process(waiter("b"))

    def setter():
        yield sim.timeout(25.0)
        state["ready"] = True
        wakes.notify()

    sim.process(spawner())
    sim.process(waiter("a"))
    sim.process(setter())
    sim.run()
    return trace, sim.now, ticks


def test_parked_waits_on_one_grid_match_timeout_loops():
    loop_stream, loop_result = _dispatch_stream(
        lambda: _shared_grid_scenario(parked=False))
    parked_stream, parked_result = _dispatch_stream(
        lambda: _shared_grid_scenario(parked=True))
    assert parked_result == loop_result
    trace, now, ticks = parked_result
    assert trace == [(30.0, "resumed", ("a", 30.0)),
                     (30.0, "resumed", ("b", 30.0))]
    assert now == 30.0 and ticks == {"a": 4, "b": 2}
    # The loop ticks at 10 and 20 for nothing; the parked waits push
    # only their two rechecks at 30, where the loops tick too.
    assert len(loop_stream) - len(parked_stream) == 2


def test_wait_until_passing_check_schedules_nothing():
    sim = Simulator()
    calls = []

    def check():
        calls.append(sim.now)
        return "ready"

    def proc():
        value = yield from sim.wait_until(10.0, check, wake=(WakeList(),))
        return value

    handle = sim.process(proc())
    sim.run()
    assert handle.value == "ready"
    assert calls == [0.0]
    assert sim.now == 0.0
    assert sim._seq == 2            # bootstrap + the process's completion


def test_wait_until_delivers_check_value():
    """A notify at t=6 rechecks at the next grid instant, 7.5; the
    instants 2.5 and 5.0 are skipped."""
    sim = Simulator()
    wakes = WakeList()
    state = {"ready": False}
    ticks = []
    skipped = []

    def check():
        ticks.append(sim.now)
        return {"at": sim.now} if state["ready"] else None

    def proc():
        value = yield from sim.wait_until(2.5, check, wake=(wakes,),
                                          on_skip=skipped.append)
        return value, sim.now

    def setter():
        yield sim.timeout(6.0)
        state["ready"] = True
        wakes.notify()

    handle = sim.process(proc())
    sim.process(setter())
    sim.run()
    assert ticks == [0.0, 7.5] and skipped == [2]
    assert handle.value == ({"at": 7.5}, 7.5)


def test_wait_until_throws_check_error_into_waiter():
    sim = Simulator()
    wakes = WakeList()
    ticks = []
    caught = []

    def check():
        ticks.append(sim.now)
        if len(ticks) == 2:
            raise LookupError("starved")
        return None

    def proc():
        try:
            yield from sim.wait_until(1.0, check, wake=(wakes,))
        except LookupError as exc:
            caught.append((sim.now, str(exc)))

    handle = sim.process(proc())
    sim.schedule(1.5, wakes.notify)
    sim.run()
    assert ticks == [0.0, 2.0]
    assert caught == [(2.0, "starved")]
    assert handle.triggered and sim.now == 2.0


def test_interrupted_wait_until_dispatches_once_more_and_stops():
    """Like a detached timeout: a recheck queued by a notify still
    pops, once, and the check never runs again."""
    ticks = []
    events = []

    def scenario():
        sim = Simulator()
        wakes = WakeList()

        def check():
            ticks.append(sim.now)
            return None

        def victim():
            try:
                yield from sim.wait_until(10.0, check, wake=(wakes,))
            except Interrupt:
                events.append(("interrupted", sim.now))

        proc = sim.process(victim())

        def attacker():
            yield sim.timeout(15.0)
            wakes.notify()
            yield sim.timeout(2.0)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        return sim

    stream, sim = _dispatch_stream(scenario)
    assert ticks == [0.0]
    assert events == [("interrupted", 17.0)]
    # The recheck the notify at t=15 queued for t=20 is the last entry
    # popped.
    assert stream[-1][0] == 20.0
    assert sim.now == 20.0 and sim.peek() is None


def test_notify_between_runs_on_a_grid_instant_matches_timeout_loop():
    """``run(until=20)`` dispatches a loop's tick at 20, so a notify
    after it, outside the run, must recheck at 30, not at 20."""

    def scenario(parked):
        sim = Simulator()
        wakes = WakeList()
        state = {"ready": False}
        done = []

        def check():
            return sim.now if state["ready"] else None

        def waiter():
            done.append((yield from _wait_every_10us(sim, check, parked,
                                                    wakes)))

        sim.process(waiter())
        sim.run(until=20.0)
        state["ready"] = True
        wakes.notify()
        sim.run()
        return done

    assert scenario(parked=True) == scenario(parked=False) == [30.0]


def test_parked_wait_counts_skipped_ticks_and_leaves_on_interrupt():
    """A parked wait is pending at its next grid instant; the ticks it
    skipped are counted when settled; an interrupt takes it off its
    wake list, so a later notify schedules nothing."""
    sim = Simulator()
    wakes = WakeList()
    checks = []
    skipped = []
    caught = []

    def victim():
        try:
            yield from sim.wait_until(
                10.0, lambda: checks.append(sim.now), wake=(wakes,),
                on_skip=skipped.append)
        except Interrupt:
            caught.append(sim.now)

    proc = sim.process(victim(), name="victim")
    sim.run(until=25.0)
    assert not sim._queue and sim.peek() == 30.0
    assert sim.pending_summary() == [
        "t=30.000us parked poll resuming process 'victim'"]
    assert checks == [0.0] and skipped == [2]
    proc.interrupt()
    sim.run()
    wakes.notify()
    assert caught == [25.0] and checks == [0.0] and skipped == [2]
    assert sim.peek() is None and sim.pending_summary() == []


def _wedged_polls():
    """Two polls parked on grids of 10 us and 3.7 us, nothing queued."""
    sim = Simulator()
    wakes = WakeList()
    skipped = {"a": 0, "b": 0}

    def waiter(name, start, interval):
        yield sim.timeout(start)

        def count(n):
            skipped[name] += n

        yield from sim.wait_until(interval, lambda: None, wake=(wakes,),
                                  on_skip=count)

    sim.process(waiter("a", 0.0, 10.0))
    sim.process(waiter("b", 1.3, 3.7))
    sim.run()
    assert not sim._queue and not sim._lane and len(sim._parked) == 2
    return sim, skipped


def test_skip_parked_stops_where_one_instant_steps_stop():
    deadline = 1000.05
    stepped, stepped_skips = _wedged_polls()
    while (upcoming := stepped.peek()) is not None and upcoming <= deadline:
        stepped.run(until=upcoming)
    jumped, jumped_skips = _wedged_polls()
    assert jumped.skip_parked(deadline)
    assert jumped.now == stepped.now
    assert jumped_skips == stepped_skips and jumped_skips["a"] == 100
    assert jumped.peek() == stepped.peek() > deadline
    assert ([poll.due for poll in jumped._parked]
            == [poll.due for poll in stepped._parked])


def test_skip_parked_refuses_an_infinite_jump_or_a_queued_entry():
    sim, skipped = _wedged_polls()
    now = sim.now
    assert not sim.skip_parked(math.inf)
    sim.schedule(5.0, lambda: None)
    assert not sim.skip_parked(100.0)
    assert sim.now == now and skipped == {"a": 0, "b": 0}


def test_poll_rejects_manual_trigger_and_negative_interval():
    from repro.sim import Poll

    sim = Simulator()
    wakes = (WakeList(),)
    poll = Poll(sim, 1.0, lambda: None, wakes)
    with pytest.raises(SimulationError):
        poll.trigger()
    with pytest.raises(SimulationError):
        poll.fail(RuntimeError())
    with pytest.raises(ValueError):
        Poll(sim, -1.0, lambda: None, wakes)


def test_a_wait_without_wake_lists_is_refused():
    """A poll always parks, so a wait with nothing to wake it is
    refused, even when its first check would pass."""
    from repro.sim import Poll

    sim = Simulator()
    with pytest.raises(ValueError):
        Poll(sim, 1.0, lambda: None, ())
    with pytest.raises(ValueError):
        next(sim.wait_until(1.0, lambda: "ready", ()))


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
    while True:
        while lane:
            heapq.heappush(queue, lane.popleft())
        if not queue:
            return
        entry = heapq.heappop(queue)
        sim.now = entry[0]
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
                        # A polling loop: op[2] failed checks, each
                        # followed by one tick.
                        ticks = iter(range(op[2]))
                        while next(ticks, None) is not None:
                            yield sim.timeout(op[1])
                        note(index, "polled", "ready")
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
# Parked polls: introspection and stops between ticks.
# ---------------------------------------------------------------------------

def _parked_poller(sim, name, interval):
    """A process whose wait parks for good: nothing notifies its list."""
    def poller():
        yield from sim.wait_until(interval, lambda: None,
                                  wake=(WakeList(),))

    return sim.process(poller(), name=name)


def test_snapshot_refuses_a_parked_poll_and_names_its_waiter():
    sim = Simulator()
    _parked_poller(sim, "poller", 10.0)
    sim.run(until=15.0)
    assert not sim._queue and not sim._lane and len(sim._parked) == 1
    with pytest.raises(SimulationError,
                       match="1 callback.*parked poll resuming process "
                             "'poller'"):
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
    assert len(sim._queue) == 4 and len(sim._parked) == 2
    lines = sim.pending_summary()
    # A parked poll is listed at its next grid instant, after the
    # entries due then.
    expected = [("t=5.000us", "early"), ("t=10.000us", "tied"),
                ("t=10.000us", "late"),
                ("t=10.000us", "parked poll resuming process 'a'"),
                ("t=15.000us", "parked poll resuming process 'b'"),
                ("t=20.000us", "late")]
    assert len(lines) == len(expected)
    for line, (time, what) in zip(lines, expected):
        assert line.startswith(time + " ") and line.endswith(what), line


def test_peek_sees_the_poll_lane_head():
    sim = Simulator()
    sim.schedule(30.0, lambda: None)
    _parked_poller(sim, "poller", 10.0)
    sim.run(until=0.0)
    assert sim.peek() == 10.0
    sim.run(until=25.0)
    assert sim.peek() == 30.0
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 27.0


def _grid_run(stops):
    """Dispatch stream of waits parked on a 10 us grid beside a 25 us
    timeout chain that notifies them, run with a stop at each of
    *stops* and then to the end."""
    stream = []
    with record_dispatch(lambda entry: stream.append(entry[:2])):
        sim = Simulator()
        wakes = WakeList()

        def poller(ticks):
            left = iter(range(ticks))
            yield from sim.wait_until(
                10.0, lambda: None if next(left, None) is not None
                else "ready", wake=(wakes,))

        def chain():
            for _ in range(4):
                yield sim.timeout(25.0)
                wakes.notify()

        sim.process(poller(4))
        sim.process(poller(2))
        sim.process(chain())
        for stop in stops:
            assert sim.run(until=stop) == stop
            assert sim.peek() > stop
        sim.run()
    return stream, sim.now, sim._seq


def test_run_until_between_ticks_resumes_the_same_stream():
    assert _grid_run([25.0, 35.0]) == _grid_run([])
