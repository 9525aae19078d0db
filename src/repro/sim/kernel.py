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
* :class:`Poll` -- a re-arming wait that re-checks a condition every
  fixed interval (see :meth:`Simulator.wait_until`),
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
* A ``while not ready: yield sim.timeout(interval)`` loop is served by
  :meth:`Simulator.wait_until`: its :class:`Poll` re-runs the check
  from the dispatch itself and re-arms, so a failed tick resumes no
  generator and allocates no ``Timeout``.
* A poll tick goes on the *poll lane*, a second ``deque``, when it
  lands at or after the lane's tail time; otherwise on the heap.  A
  tick's ``seq`` tops everything queued, so the poll lane stays in
  ``(time, seq)`` order, and polls sharing an interval never touch the
  heap.  Only a shorter interval behind a longer one's tick falls back
  to the heap.

None of this changes *when* anything runs: every trigger, timeout,
poll tick, process bootstrap and late waiter still pushes exactly one
entry, on the heap or one of the two lanes, in program order, and
:meth:`Simulator.run`, the one loop that pops any of the three,
dispatches them in the ``(time, seq)`` order a callback list per event
would give.
``tests/test_kernel_fastpath.py`` pins that stream for its scenarios to
recorded fingerprints.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heappop
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Poll",
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
        sim._lane.append((sim._now, seq, self, _NO_ARGS))
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
        sim._lane.append((sim._now, seq, self, _NO_ARGS))
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
            sim._lane.append((sim._now, seq, fn, (self,)))
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
        now = sim._now
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
    """A re-arming wait: re-run ``check()`` every ``interval`` microseconds.

    Created by :meth:`Simulator.wait_until` after the inline first check
    has failed; only that helper's frame waits on it.  Each dispatch is
    one tick.  It runs ``check()`` right in the dispatch: ``None`` means
    "not yet" and re-arms the poll with exactly one entry at ``now +
    interval``, on the heap, the poll lane or the same-instant lane --
    with the ``(time, seq)`` key a ``yield sim.timeout(interval)``
    would push -- and any other value
    fires the poll and resumes the waiter straight from the same
    dispatch.  An exception raised by
    ``check()`` is thrown into the waiter at its ``yield``.  A failed
    tick therefore resumes no generator and allocates no event.

    An abandoned poll (its waiter detached by an interrupt, or its
    ``check`` dropped when the waiting generator closed) dispatches
    once more and stops without running ``check``, exactly as a
    detached :class:`Timeout` fires once into the void.
    """

    __slots__ = ("interval", "check")

    def __init__(self, sim: "Simulator", interval: float,
                 check: Callable[[], Any]):
        if interval < 0:
            raise ValueError(f"negative poll interval: {interval}")
        self.sim = sim
        self.interval = interval
        self.check = check
        self.callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._arm()

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
            # _arm, inlined: a failed tick is the poll's hot path, and
            # the call cost 5-8% of one on CPython 3.11.
            sim = self.sim
            now = sim._now
            when = now + self.interval
            sim._seq = seq = sim._seq + 1
            if when == now:
                sim._lane.append((when, seq, self, _NO_ARGS))
            else:
                polls = sim._polls
                if not polls or when >= polls[-1][0]:
                    polls.append((when, seq, self, _NO_ARGS))
                else:
                    heappush(sim._queue, (when, seq, self, _NO_ARGS))
            return
        self._finish(waiter, value, True)

    def _arm(self) -> None:
        """Push this poll's next tick at ``now + interval``.

        Due now, it goes on the same-instant lane; at or after the
        poll lane's tail, on the poll lane; otherwise (a shorter
        interval behind a longer one's tick) on the heap.
        """
        sim = self.sim
        now = sim._now
        when = now + self.interval
        sim._seq = seq = sim._seq + 1
        if when == now:
            sim._lane.append((when, seq, self, _NO_ARGS))
        else:
            polls = sim._polls
            if not polls or when >= polls[-1][0]:
                polls.append((when, seq, self, _NO_ARGS))
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
        sim._lane.append((sim._now, seq, self._resume, (None, None)))

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
    order.  They sit on a heap; on the same-instant lane, a FIFO, when
    due at the current instant; or, for poll ticks at or after its
    tail, on the sorted poll lane.  :meth:`run` is the one loop that
    dispatches them; a caller that stops after each instant calls
    ``run(until=peek())``.

    All model components hold a reference to one ``Simulator`` and use
    :meth:`timeout`, :meth:`event`, and :meth:`process` to build behaviour.
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute
        #: (read millions of times per simulated second); treat it as
        #: read-only -- only the event loop advances it.
        self.now = 0.0
        self._now = 0.0
        self._queue: List[tuple] = []
        self._lane: deque = deque()
        self._polls: deque = deque()
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

    def wait_until(self, interval: float,
                   check: Callable[[], Any]) -> Generator:
        """Wait, polling every *interval* us, until *check()* is not None.

        Use it as ``value = yield from sim.wait_until(interval, check)``
        in place of ``while not ready: yield sim.timeout(interval)``.
        ``check()`` runs once inline; a non-None result returns at once
        with nothing scheduled.  Otherwise a :class:`Poll` re-runs it
        from the dispatch every *interval* us, pushing one entry per
        failed tick -- the ``(time, seq)`` stream of the timeout loop --
        and resumes this frame only with the first non-None
        result, which becomes the value of the ``yield from``.  An
        exception from ``check()`` propagates out of the ``yield from``.

        ``check`` must be a pure predicate of model state plus whatever
        per-tick side effects the loop it replaces performed before
        sleeping; it runs outside the waiting generator's frame.
        """
        value = check()
        if value is not None:
            return value
        poll = Poll(self, interval, check)
        try:
            return (yield poll)
        finally:
            # Drop the closure when this frame closes (interrupt, error,
            # or a finished simulator being collected), so a poll left
            # queued holds no reference into the model.
            poll.check = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* microseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self._now + delay
        self._seq = seq = self._seq + 1
        if when == self._now:
            self._lane.append((when, seq, fn, args))
        else:
            heappush(self._queue, (when, seq, fn, args))

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulation time reaches *until*.

        Returns the simulation time at which execution stopped.

        The loop repeats three steps: dispatch the heap and poll-lane
        entries due at ``now``, merged by ``seq``; drain the
        same-instant lane (entries appended during the drain join its
        tail); then set ``now`` to the earlier of the heap's and the
        poll lane's next times.  That is exact ``(time, seq)`` order.
        An entry pushed at ``now`` carries a higher ``seq`` than
        everything already queued, so the same-instant lane is in order
        by itself, and so is the poll lane, which only takes a tick at
        or after its tail's time.  A heap or poll-lane entry due at
        ``now`` was pushed before the clock got there -- pushes at
        ``now`` go to the same-instant lane -- so it precedes every
        same-instant entry.  A callback that raises leaves the
        undispatched entries queued; the next ``run()`` resumes the same
        order.

        The clock never runs backwards: an *until* before ``now`` raises
        :class:`SimulationError` and leaves every queued entry in place.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        queue = self._queue
        lane = self._lane
        polls = self._polls
        time = self._now
        if until is not None and until < time:
            raise SimulationError(
                f"run(until={until}) is before the current time {time}")
        self._running = True
        try:
            pop = heappop
            popleft = lane.popleft
            poll_popleft = polls.popleft
            while True:
                # Poll-lane ticks due now, each after the heap entries
                # due now with a lower seq; then the rest of the heap's.
                while polls and polls[0][0] == time:
                    if queue and queue[0] < polls[0]:
                        entry = pop(queue)
                    else:
                        entry = poll_popleft()
                    entry[2](*entry[3])
                while queue and queue[0][0] == time:
                    entry = pop(queue)
                    entry[2](*entry[3])
                while lane:
                    entry = popleft()
                    entry[2](*entry[3])
                if queue:
                    time = queue[0][0]
                    if polls and polls[0][0] < time:
                        time = polls[0][0]
                elif polls:
                    time = polls[0][0]
                else:
                    break
                if until is not None and time > until:
                    self.now = self._now = until
                    return until
                self.now = self._now = time
            if until is not None and until > time:
                self.now = self._now = until
        finally:
            self._running = False
        return self._now

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
        rather than just a count.
        """
        pending = sorted([*self._queue, *self._lane, *self._polls])
        lines = [f"t={time:.3f}us {self._describe_callback(fn)}"
                 for time, _seq, fn, _args in pending[:limit]]
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
        snapshot while any callback is scheduled -- the event queue must
        be empty (every process parked on an untriggered event, or
        finished).  ``run()`` without an ``until`` bound drains to
        exactly this state.  Returns a JSON-able dict holding the clock
        and the event sequence counter; restoring both makes events
        scheduled after the restore carry the same ``(time, seq)`` keys
        as they would in an uninterrupted run.
        """
        pending = len(self._queue) + len(self._lane) + len(self._polls)
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
        return {"now": self._now, "seq": self._seq}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` checkpoint onto this kernel.

        The queue must be empty (drain any bootstrap events first --
        e.g. freshly respawned background processes -- so their entries
        do not carry pre-restore sequence numbers into the future).
        """
        if self._queue or self._lane or self._polls:
            raise SimulationError(
                "cannot restore into a simulator with scheduled callbacks"
            )
        self.now = self._now = float(state["now"])
        self._seq = int(state["seq"])

    def peek(self) -> Optional[float]:
        """Time of the next queued callback, or None if the queue is empty."""
        if self._lane:
            return self._now
        times = [entries[0][0] for entries in (self._queue, self._polls)
                 if entries]
        return min(times) if times else None
