"""Discrete-event simulation kernel.

A minimal, fast, generator-based process model in the spirit of SimPy,
purpose-built for the dSSD reproduction.  Simulation time is a float in
**microseconds**.  Processes are Python generators that ``yield`` events;
a process resumes when the yielded event triggers.

Example::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)      # wait 5 us
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert sim.now == 5.0 and proc.value == "done"

The kernel supports:

* :class:`Event` -- one-shot triggerable events carrying a value,
* :class:`Timeout` -- events that fire after a fixed delay,
* :class:`Poll` -- a wait parked on model state that re-checks a
  condition on a grid of fixed-interval ticks when the state changes
  (see :meth:`Simulator.wait_until`),
* :class:`WakeList` -- the polls parked on one piece of model state,
  woken by the state's owner,
* :class:`Process` -- generator-driven processes (joinable, interruptible),
* :class:`AllOf` / :class:`AnyOf` -- condition events over several events.

Hot-path design
---------------

The dominant pattern in the SSD models is a process looping on ``yield
sim.timeout(...)``.  The kernel serves it with a *direct-resume* fast
path (see DESIGN.md, "The fast-resume kernel" and "Invariants an
optimization must preserve"):

* Heap entries for events hold the event object itself -- events are
  callable, ``event()`` dispatches -- so triggering allocates no bound
  method.
* The first process to wait on an event is stored in the ``_waiter``
  slot and resumed straight from the dispatch, with no
  ``Event.callbacks`` list and no ``Process._on_event`` hop.  The list
  is only allocated once a *second* waiter (or a non-process callback)
  appears; dispatch runs the direct waiter first, which is exactly
  registration order.
* ``Timeout`` initializes its slots inline and pushes its own entry,
  skipping the ``Event.__init__``/``schedule`` call chain.
* An entry due at the current instant goes on the *same-instant
  lane*, a FIFO ``deque``, not the heap: its ``seq`` tops everything
  queued, so FIFO order is ``(time, seq)`` order (see
  :meth:`Simulator.run`).  Delays route on ``now + delay == now``, not
  on ``delay == 0``, so a delay a large float ``now`` absorbs is due now.
* A wait whose state has an owner parks instead of ticking a ``while
  not ready: yield sim.timeout(interval)`` loop: its poll sits on the
  owner's :class:`WakeList`s with no entry queued, and the owner's
  ``notify()`` pushes one recheck at the poll's next grid instant.
  The ticks it stepped over are counted, not run.

None of this changes *when* anything runs: every trigger, timeout,
poll recheck, process bootstrap and late waiter still pushes exactly
one entry, on the heap or the same-instant lane, in program order, and
:meth:`Simulator.run`, the one loop that pops either, dispatches them
in the ``(time, seq)`` order a callback list per event would give.  A
parked poll's recheck lands on the grid instant its polling loop would
have passed at, so it moves the ``(time, seq)`` stream -- fewer entries
-- but not the model.
``tests/test_kernel_fastpath.py`` pins that stream for its scenarios to
recorded fingerprints, and their end states to recorded digests.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush, heappop
from typing import (Any, Callable, Dict, Generator, Iterable, List,
                    Optional, Sequence)

__all__ = [
    "Event",
    "Timeout",
    "Poll",
    "WakeList",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
]

#: Sentinel stored in ``Event.callbacks`` once the event has dispatched.
_DISPATCHED = object()


#: Shared empty args tuple for event queue entries.
_NO_ARGS = ()


class SimulationError(RuntimeError):
    """Raised on kernel misuse (double trigger, running a finished sim...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process receives this exception at its current
    ``yield`` statement and may catch it to implement preemption (for
    example, preemptive garbage collection yielding to host I/O).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`trigger` (or
    :meth:`fail`) marks it triggered, records its value, and schedules its
    callbacks to run at the current simulation time.  Triggering twice is
    an error.

    ``callbacks`` is ``None`` while no callback has been registered (the
    sole direct process waiter lives in the ``_waiter`` slot instead), a
    list once callbacks exist, and an opaque sentinel after dispatch.
    """

    __slots__ = ("sim", "callbacks", "_waiter", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks = None
        self._waiter: Optional["Process"] = None
        self._value: Any = None
        self._ok = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or not)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (not via :meth:`fail`)."""
        return self._triggered and self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering *value* to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lane.append((sim.now, seq, self, _NO_ARGS))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; waiters receive *exception*."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._lane.append((sim.now, seq, self, _NO_ARGS))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event fires (immediately if it has)."""
        cbs = self.callbacks
        if cbs is _DISPATCHED:
            # Already dispatched: run at the current time via the lane so
            # ordering relative to other scheduled work stays consistent.
            # Pushed directly (no schedule() wrapper, no closure) -- the
            # same entry shape the direct-resume path uses.
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._lane.append((sim.now, seq, fn, (self,)))
        elif cbs is None:
            self.callbacks = [fn]
        else:
            cbs.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a previously added callback (no-op if absent)."""
        cbs = self.callbacks
        if cbs is not None and cbs is not _DISPATCHED and fn in cbs:
            cbs.remove(fn)

    def _detach_process(self, process: "Process") -> None:
        """Unhook *process* however it is waiting (direct slot or list)."""
        if self._waiter is process:
            self._waiter = None
        else:
            self.remove_callback(process._on_event)

    def _dispatch(self) -> None:
        waiter = self._waiter
        callbacks = self.callbacks
        self.callbacks = _DISPATCHED
        if waiter is not None:
            self._waiter = None
            waiter._waiting_on = None
            if self._ok:
                waiter._resume(self._value, None)
            else:
                waiter._resume(None, self._value)
        if callbacks:
            for fn in callbacks:
                fn(self)

    #: Events are callable so a queue entry can hold the event itself.
    __call__ = _dispatch


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    Unlike a plain :class:`Event`, a timeout is armed at construction and
    triggers itself when the delay elapses: ``triggered``/``ok``/``value``
    stay False/False/unreadable until the scheduled dispatch actually
    runs, and manual :meth:`trigger`/:meth:`fail` are rejected.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + scheduling: this runs once per yielded
        # timeout, i.e. on the hottest allocation path in the simulator.
        self.sim = sim
        self.delay = delay
        self.callbacks = None
        self._waiter = None
        self._value = value
        self._ok = True
        self._triggered = False
        now = sim.now
        when = now + delay
        sim._seq = seq = sim._seq + 1
        if when == now:
            sim._lane.append((when, seq, self, _NO_ARGS))
        else:
            heappush(sim._queue, (when, seq, self, _NO_ARGS))

    def trigger(self, value: Any = None) -> "Event":
        raise SimulationError("a Timeout fires by itself; trigger() is "
                              "not allowed")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("a Timeout fires by itself; fail() is "
                              "not allowed")

    def _dispatch(self) -> None:
        self._triggered = True
        waiter = self._waiter
        callbacks = self.callbacks
        self.callbacks = _DISPATCHED
        if waiter is not None:
            # Timeouts cannot fail, so the ok-branch is resolved statically.
            self._waiter = None
            waiter._waiting_on = None
            waiter._resume(self._value, None)
        if callbacks:
            for fn in callbacks:
                fn(self)

    __call__ = _dispatch


class Poll(Event):
    """A parked wait: re-run ``check()`` when its wake lists are notified.

    Created by :meth:`Simulator.wait_until` after the inline first check
    has failed; only that helper's frame waits on it.  Its checks fall
    on one *grid*, ``start + interval + interval + ...`` by repeated
    float addition, which is the ``now + interval`` a ``yield
    sim.timeout(interval)`` loop would compute at each tick.  Between
    checks the poll *parks*: it pushes nothing and waits on each of its
    :class:`WakeList`s, its next grid instant in ``due``.  A
    :meth:`WakeList.notify` wakes it: it steps ``due`` along its grid
    past the instants that are over (see :meth:`Simulator.settle`),
    reports how many to ``on_skip``, and pushes one recheck at the
    next.  The recheck runs ``check()`` right in the dispatch: any
    value other than ``None`` fires the poll and resumes the waiter
    straight from the same dispatch, an exception raised by ``check()``
    is thrown into the waiter at its ``yield``, and ``None`` parks the
    poll again.

    A parked poll is still pending work: :meth:`Simulator.peek`,
    :meth:`Simulator.pending_summary` and the checkpoint refusals see
    it at its next grid instant, as they would see a polling loop's
    tick.

    An abandoned poll (its waiter detached by an interrupt, or its
    ``check`` dropped when the waiting generator closed) stops without
    running ``check`` again: a queued recheck dispatches once more into
    the void, exactly as a detached :class:`Timeout` fires, and a
    parked one leaves its lists when the waiting frame closes.
    """

    __slots__ = ("interval", "check", "wakes", "on_skip", "due")

    def __init__(self, sim: "Simulator", interval: float,
                 check: Callable[[], Any], wakes: Sequence["WakeList"],
                 on_skip: Optional[Callable[[int], Any]] = None):
        if not interval > 0:
            raise ValueError(f"poll interval must be positive: {interval}")
        if not wakes:
            raise ValueError("a poll needs at least one wake list")
        self.sim = sim
        self.interval = interval
        self.check = check
        self.wakes = tuple(wakes)
        self.on_skip = on_skip
        self.callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self.due = sim.now + interval
        self._park()

    def trigger(self, value: Any = None) -> "Event":
        raise SimulationError("a Poll fires by itself; trigger() is "
                              "not allowed")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("a Poll fires by itself; fail() is "
                              "not allowed")

    def _dispatch(self) -> None:
        waiter = self._waiter
        check = self.check
        if waiter is None or check is None:
            return
        try:
            value = check()
        except Exception as exc:
            self._finish(waiter, exc, False)
            return
        if value is None:
            self.due = self.sim.now + self.interval
            self._park()
            return
        self._finish(waiter, value, True)

    def _park(self) -> None:
        """Wait on every wake list, after the polls parked before."""
        self.sim._parked[self] = None
        for wakes in self.wakes:
            wakes._parked[self] = None

    def _unpark(self) -> None:
        """Leave every wake list (no-op unless parked)."""
        parked = self.sim._parked
        if self in parked:
            del parked[self]
            for wakes in self.wakes:
                wakes._parked.pop(self, None)

    def _settle(self, upto: float) -> Optional[float]:
        """Step ``due`` past every grid instant before *upto*.

        Each instant stepped over is a tick the parked poll skipped;
        ``on_skip`` hears how many.  The additions are a polling loop's,
        so ``due`` stays on the grid that loop would walk.  Returns
        the last instant stepped over, if any.
        """
        due = self.due
        last = None
        if due < upto:
            interval = self.interval
            skipped = 0
            while due < upto:
                last = due
                due += interval
                skipped += 1
            self.due = due
            if self.on_skip is not None:
                self.on_skip(skipped)
        return last

    def _wake(self) -> None:
        """Leave the lists and push one recheck at the next grid instant:
        on the same-instant lane when that is ``now``, else on the heap."""
        self._unpark()
        sim = self.sim
        self._settle(sim._ticks_over())
        when = self.due
        sim._seq = seq = sim._seq + 1
        if when == sim.now:
            sim._lane.append((when, seq, self, _NO_ARGS))
        else:
            heappush(sim._queue, (when, seq, self, _NO_ARGS))

    def _finish(self, waiter: "Process", value: Any, ok: bool) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        self.callbacks = _DISPATCHED
        self._waiter = None
        waiter._waiting_on = None
        if ok:
            waiter._resume(value, None)
        else:
            waiter._resume(None, value)

    __call__ = _dispatch


class WakeList:
    """The polls parked on one piece of model state.

    The object that owns the state owns the list, and calls
    :meth:`notify` whenever the state changes in a way a parked poll's
    check may see.  A poll parks on every list its wait names, in the
    order the polls failed their checks; a notify wakes every poll on
    the list in that order and empties it (a woken poll also leaves its
    other lists).  Notifying too often costs a recheck that fails; not
    notifying when a check would now pass is a bug.
    """

    __slots__ = ("_parked",)

    def __init__(self) -> None:
        self._parked: dict = {}

    def notify(self) -> None:
        """Wake every parked poll, in the order they parked."""
        parked = self._parked
        if parked:
            self._parked = {}
            for poll in parked:
                poll._wake()


class Process(Event):
    """A running simulation process driving a generator.

    The process itself is an :class:`Event` that fires when the generator
    finishes; its value is the generator's return value.  Other processes
    may ``yield`` a process to join it.
    """

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start the generator at the current time.
        sim._seq = seq = sim._seq + 1
        sim._lane.append((sim.now, seq, self._resume, (None, None)))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.  The event the process
        was waiting on is detached so that its later trigger does not
        resume the process twice.
        """
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None:
            target._detach_process(self)
            self._waiting_on = None
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause))

    # -- generator driving ------------------------------------------------

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event.value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exc)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as normal termination.
            self.trigger(None)
            return
        self._waiting_on = target
        try:
            if target.callbacks is None and target._waiter is None:
                # Direct resume: sole waiter, no list, no _on_event hop.
                target._waiter = self
            else:
                target.add_callback(self._on_event)
        except AttributeError:
            self._waiting_on = None
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "must yield Event instances"
                ) from None
            raise


class AllOf(Event):
    """Fires when every event in *events* has fired.

    The value is the list of the individual event values in input order.
    An empty list fires immediately.  When one child fails, the condition
    fails and detaches itself from the remaining children so long-lived
    events do not accumulate dead waiter references.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.trigger([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            self._detach_from(event)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([e.value for e in self._events])

    def _detach_from(self, fired: Event) -> None:
        on_child = self._on_child
        for other in self._events:
            if other is not fired:
                other.remove_callback(on_child)


class AnyOf(Event):
    """Fires when the first of *events* fires; value is ``(event, value)``.

    Once decided, the condition detaches its callback from the losing
    children -- otherwise every race against a long-lived event would
    leave a dead reference on it for the rest of the simulation.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf needs at least one event")
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.trigger((event, event.value))
        on_child = self._on_child
        for other in self._events:
            if other is not event:
                other.remove_callback(on_child)


class Simulator:
    """The event loop: a time-ordered queue of callbacks.

    Entries are ``(time, seq, fn, args)`` tuples run in ``(time, seq)``
    order.  They sit on a heap, or on the same-instant lane, a FIFO,
    when due at the current instant.  :meth:`run` is the one loop that
    dispatches them; a caller that stops after each instant calls
    ``run(until=peek())``.  Polls parked on a :class:`WakeList` hold no
    entry; the simulator keeps them in ``_parked``, in parking order.

    All model components hold a reference to one ``Simulator`` and use
    :meth:`timeout`, :meth:`event`, and :meth:`process` to build behaviour.
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute
        #: (read millions of times per simulated second); treat it as
        #: read-only -- only the event loop advances it.
        self.now = 0.0
        self._queue: List[tuple] = []
        self._lane: deque = deque()
        self._parked: Dict[Poll, None] = {}
        self._seq = 0
        self._running = False
        self._resources: List[Any] = []

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing *delay* microseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start *generator* as a process and return its handle."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing once all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event firing once any of *events* has fired."""
        return AnyOf(self, events)

    def wait_until(self, interval: float, check: Callable[[], Any],
                   wake: Sequence["WakeList"],
                   on_skip: Optional[Callable[[int], Any]] = None
                   ) -> Generator:
        """Wait, parked on *wake*, until *check()* is not None.

        Use it as ``value = yield from sim.wait_until(interval, check,
        wake)`` in place of ``while not ready: yield
        sim.timeout(interval)`` when the state ``check()`` reads has an
        owner.  ``check()`` runs once inline; a non-None result returns
        at once with nothing scheduled.  Otherwise a :class:`Poll`
        parks on *wake*, a non-empty sequence of :class:`WakeList`, and
        runs ``check()`` again only at the first instant of the loop's
        grid after a notify: the lists' owners must notify whenever
        ``check()`` could change its answer.  The first non-None result
        resumes this frame and becomes the value of the ``yield from``;
        an exception from ``check()`` propagates out of the ``yield
        from``.  ``on_skip(n)`` hears of the *n* ticks each parked
        stretch stepped over, at the wake and whenever :meth:`settle`
        counts them, so a per-tick counter the check keeps can add
        them.

        ``check`` must be a pure predicate of model state plus whatever
        per-tick side effects the loop it replaces performed before
        sleeping; it runs outside the waiting generator's frame.  A
        parked wait skips those side effects, so it needs ``on_skip``
        for any that a skipped tick would have had.  An empty *wake* is
        refused with :class:`ValueError`.
        """
        if not wake:
            raise ValueError("wait_until needs at least one wake list")
        value = check()
        if value is not None:
            return value
        poll = Poll(self, interval, check, wake, on_skip)
        try:
            return (yield poll)
        finally:
            # Drop the closure and leave the wake lists when this frame
            # closes (interrupt, error, or a finished simulator being
            # collected), so a poll left behind holds no reference into
            # the model.
            poll.check = None
            poll._unpark()

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* microseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self.now + delay
        self._seq = seq = self._seq + 1
        if when == self.now:
            self._lane.append((when, seq, fn, args))
        else:
            heappush(self._queue, (when, seq, fn, args))

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulation time reaches *until*.

        Returns the simulation time at which execution stopped.

        The loop repeats three steps: dispatch the heap entries due at
        ``now``; drain the same-instant lane (entries appended during
        the drain join its tail); then set ``now`` to the heap's next
        time.  That is exact ``(time, seq)`` order.  An entry pushed at
        ``now`` carries a higher ``seq`` than everything already
        queued, so the same-instant lane is in order by itself, and a
        heap entry due at ``now`` was pushed before the clock got there
        -- pushes at ``now`` go to the same-instant lane -- so it
        precedes every same-instant entry.  A callback that raises
        leaves the undispatched entries queued; the next ``run()``
        resumes the same order.

        Parked polls hold no entry, so without *until* the run returns
        once nothing is queued, even with polls still parked (a polling
        loop would tick forever); :meth:`peek` still reports them.

        The clock never runs backwards: an *until* before ``now`` raises
        :class:`SimulationError` and leaves every queued entry in place.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        queue = self._queue
        lane = self._lane
        time = self.now
        if until is not None and until < time:
            raise SimulationError(
                f"run(until={until}) is before the current time {time}")
        self._running = True
        try:
            pop = heappop
            popleft = lane.popleft
            while True:
                while queue and queue[0][0] == time:
                    entry = pop(queue)
                    entry[2](*entry[3])
                while lane:
                    entry = popleft()
                    entry[2](*entry[3])
                if not queue:
                    break
                time = queue[0][0]
                if until is not None and time > until:
                    self.now = until
                    return until
                self.now = time
            if until is not None and until > time:
                self.now = until
        finally:
            self._running = False
        return self.now

    # -- introspection -------------------------------------------------------

    def register_resource(self, resource: Any) -> None:
        """Track *resource* for quiescence diagnostics.

        Registered objects must expose ``outstanding_summary() ->
        Optional[str]``; the shared-resource primitives in
        :mod:`repro.sim.resources` register themselves at construction.
        """
        self._resources.append(resource)

    def outstanding_holds(self) -> List[str]:
        """One line per registered resource that is not idle.

        The quiescence guards and the fuzzer's leaked-hold oracle use
        this to name exactly which semaphores/links/queues still hold
        state when the event queue has drained.
        """
        lines = []
        for resource in self._resources:
            summary = resource.outstanding_summary()
            if summary:
                lines.append(summary)
        return lines

    def pending_summary(self, limit: int = 8) -> List[str]:
        """Describe up to *limit* scheduled callbacks (soonest first).

        Names the owning process where one can be identified, so a
        failed quiescence check reports *who* still has work queued
        rather than just a count.  A parked poll is listed at its next
        grid instant, after the entries due then.
        """
        self.settle()
        pending = [entry[:3] for entry in (*self._queue, *self._lane)]
        pending.extend((poll.due, math.inf, poll) for poll in self._parked)
        pending.sort(key=lambda entry: entry[:2])
        lines = [f"t={time:.3f}us {self._describe_callback(fn)}"
                 for time, _seq, fn in pending[:limit]]
        extra = len(pending) - limit
        if extra > 0:
            lines.append(f"... and {extra} more")
        return lines

    @staticmethod
    def _describe_callback(fn: Any) -> str:
        if isinstance(fn, Process):
            return f"process {fn.name!r} completion"
        if isinstance(fn, Event):
            waiter = fn._waiter
            link = getattr(fn, "link", None)
            if link is not None and not fn._triggered:
                # A link transfer's first entry: the link finishing it.
                text = (f"Link {link.name or '<anonymous>'!r} "
                        "transfer finishing")
                if isinstance(waiter, Process):
                    text += f" (resumes process {waiter.name!r})"
                return text
            kind = type(fn).__name__.lower()
            if isinstance(fn, Poll) and fn in fn.sim._parked:
                kind = "parked poll"
            if isinstance(waiter, Process):
                return f"{kind} resuming process {waiter.name!r}"
            return kind
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Process):
            return f"process {owner.name!r} resume"
        if owner is not None:
            name = getattr(owner, "name", "") or type(owner).__name__
            return f"{type(owner).__name__} {name!r}.{fn.__name__}"
        return getattr(fn, "__qualname__", repr(fn))

    # -- checkpointing -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpoint the kernel: only legal at a *quiescent point*.

        Python generators cannot be serialized, so the kernel refuses to
        snapshot while any callback is scheduled or any poll is parked
        -- every process must wait on an untriggered event, or be
        finished.  ``run()`` without an ``until`` bound drains the
        queue; a poll it leaves parked still refuses.  Returns a JSON-able dict holding the clock
        and the event sequence counter; restoring both makes events
        scheduled after the restore carry the same ``(time, seq)`` keys
        as they would in an uninterrupted run.
        """
        pending = len(self._queue) + len(self._lane) + len(self._parked)
        if pending:
            message = (
                f"cannot snapshot: {pending} callback(s) still "
                "scheduled (snapshot only at a quiescent point -- run the "
                "simulation to completion first); pending: "
                + "; ".join(self.pending_summary())
            )
            holds = self.outstanding_holds()
            if holds:
                message += "; outstanding holds: " + "; ".join(holds)
            raise SimulationError(message)
        if self._running:
            raise SimulationError("cannot snapshot while the loop is running")
        return {"now": self.now, "seq": self._seq}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` checkpoint onto this kernel.

        The queue must be empty and no poll parked (drain any bootstrap
        events first -- e.g. freshly respawned background processes --
        so their entries do not carry pre-restore sequence numbers into
        the future).
        """
        if self._queue or self._lane or self._parked:
            raise SimulationError(
                "cannot restore into a simulator with scheduled callbacks"
            )
        self.now = float(state["now"])
        self._seq = int(state["seq"])

    def peek(self) -> Optional[float]:
        """Time of the next queued callback or parked poll tick, or None
        if there is neither."""
        if self._lane:
            return self.now
        times = [self._queue[0][0]] if self._queue else []
        if self._parked:
            self.settle()
            times.append(min(poll.due for poll in self._parked))
        return min(times) if times else None

    def settle(self) -> None:
        """Count the ticks parked polls have skipped up to ``now``.

        Steps each parked poll's ``due`` past the grid instants that are
        over and tells its ``on_skip`` how many: the instants before
        ``now`` inside :meth:`run`, and those at ``now`` too between
        runs, when everything due at ``now`` has dispatched.  A counter
        that parked polls feed reads exact after a ``settle()``.
        """
        if self._parked:
            upto = self._ticks_over()
            for poll in self._parked:
                poll._settle(upto)

    def skip_parked(self, until: float) -> bool:
        """With only parked polls left, settle their ticks up to *until*.

        No model code can run to notify them, so this counts every grid
        instant at or before *until* at once and leaves the clock on the
        latest, where repeated ``run(until=peek())`` would stop.  False,
        changing nothing, if an entry is queued or *until* is infinite.
        """
        if self._queue or self._lane or until == math.inf:
            return False
        upto = math.nextafter(until, math.inf)
        lasts = [poll._settle(upto) for poll in self._parked]
        self.now = max(
            [self.now] + [last for last in lasts if last is not None])
        return True

    def _ticks_over(self) -> float:
        """The instant a parked poll's ticks are over before: ``now``
        inside :meth:`run`, the next float after it between runs."""
        now = self.now
        return now if self._running else math.nextafter(now, math.inf)
