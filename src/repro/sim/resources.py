"""Shared-resource primitives built on the DES kernel.

Three resources model every point of contention in the SSD:

* :class:`Resource` -- a counting semaphore: *n* units granted in
  (priority, arrival) order.  One unit of a capacity-1 resource is a
  flash plane; the rest are ECC engine lanes, dBUF and GC staging page
  slots, fNoC router input credits, NVMe submission-queue slots and
  write-buffer pages.  :meth:`Resource.hold` is the one timed hold (an
  array operation on a plane, a decode on an ECC lane).
* :class:`Link` -- a *serializing bandwidth* resource: a transfer occupies
  the link for ``bytes / bandwidth`` microseconds.  Used for the system
  bus, the flash bus channels, DRAM ports, and the dedicated dSSD_b bus.
* :class:`Store` -- a FIFO hand-off queue between producer and consumer
  processes.  Used for command queues inside flash controllers.

All completion notifications are kernel :class:`~repro.sim.kernel.Event`
objects, so processes simply ``yield`` them.

A link transfer is one object: :class:`Transfer` is the event its caller
waits on *and* the link's completion entry on the kernel heap.  It is
dispatched twice.  The first dispatch, while it is still untriggered, is
the link finishing: the link goes idle, starts its next queued transfer
and triggers the transfer on the same-instant lane.  The second is the
ordinary event dispatch that resumes the waiter and runs the callbacks.
So a transfer costs two kernel entries, pushed in the order, and with
the ``(time, seq)`` keys, that the recorded dispatch fingerprints pin.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Deque, Generator, List, Optional, Tuple

from .kernel import _DISPATCHED, Event, SimulationError, Simulator
from .stats import TimeBins

__all__ = ["Resource", "Link", "Store", "Transfer"]

_priority_of = itemgetter(0)


class Resource:
    """A counting semaphore: ``capacity`` units granted in order.

    :meth:`acquire` asks for *n* units; its event fires with *n* once
    they are granted.  Waiters are served lowest ``priority`` first and
    FIFO within a priority, with head-of-line blocking: a request that
    does not fit holds back every request queued behind it, so a large
    credit request is never starved by smaller ones.  Every granted
    request is returned exactly once, by :meth:`release` or
    :meth:`cancel`.

    ``busy_time`` and ``served`` meter :meth:`hold`: the unit-time spent
    holding and the number of holds that started service.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._available = capacity
        # (priority, n, grant), kept in (priority, arrival) order.  A
        # plain list: nearly every request has priority 0, so an insert
        # is an append and a grant pops the head.
        self._waiters: List[Tuple[int, int, Event]] = []
        self._owners: dict = {}
        self.busy_time = 0.0
        self.served = 0
        sim.register_resource(self)

    @property
    def in_use(self) -> int:
        """Number of currently granted units."""
        return self.capacity - self._available

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for units."""
        return len(self._waiters)

    def acquire(self, n: int = 1, priority: int = 0,
                owner: str = "") -> Event:
        """Ask for *n* units; the returned event fires with *n* when granted.

        *owner* optionally labels the hold for quiescence diagnostics
        (see :meth:`outstanding_summary`).  Owner-labelled holds should
        be returned via :meth:`cancel` (the exception-safe pattern) so
        the label is cleared precisely; a plain :meth:`release` drops
        the oldest label, which is best-effort only.
        """
        if n < 1:
            raise ValueError(f"must acquire >= 1 unit, got {n}")
        if n > self.capacity:
            raise ValueError(
                f"request of {n} units exceeds capacity {self.capacity}")
        grant = Event(self.sim)
        if owner:
            self._owners[grant] = owner
        waiters = self._waiters
        if self._available >= n and (not waiters
                                     or priority < waiters[0][0]):
            self._available -= n
            grant.trigger(n)
        elif not waiters or priority >= waiters[-1][0]:
            waiters.append((priority, n, grant))
        else:
            waiters.insert(bisect_right(waiters, priority, key=_priority_of),
                           (priority, n, grant))
        return grant

    def release(self, n: int = 1) -> None:
        """Return *n* units and grant queued requests in order."""
        if n < 1:
            raise ValueError(f"must release >= 1 unit, got {n}")
        self._return(n)
        if self._owners:
            self._owners.pop(next(iter(self._owners)))

    def _return(self, n: int) -> None:
        # Refuse before mutating: a refused release leaves the resource,
        # and the holds it reports, exactly as they were.
        available = self._available + n
        if available > self.capacity:
            raise RuntimeError(
                f"resource {self.name!r} over-released "
                f"({available}/{self.capacity})")
        waiters = self._waiters
        while waiters and available >= waiters[0][1]:
            _priority, count, grant = waiters.pop(0)
            available -= count
            grant.trigger(count)
        self._available = available

    def cancel(self, grant: Event) -> None:
        """Abandon a request, whether or not it has been granted yet.

        The exception-safety primitive: a holder interrupted between
        :meth:`acquire` and :meth:`release` calls this from a
        ``finally``.  If the grant already fired, its units (the grant
        value) are returned; if it is still queued it leaves the queue
        at once, so its units are never handed out and a repeated
        cancel finds nothing to remove.  Removing the head of the queue
        may let smaller requests behind it in.  A granted request
        returns its units once: the grant's value drops to 0 then, and
        a second cancel raises ``RuntimeError`` with nothing changed,
        rather than returning units another holder owns.
        """
        if grant._triggered:
            count = grant._value
            if not count:
                raise RuntimeError(
                    f"resource {self.name!r} over-released: cancel of a "
                    f"grant whose units were already returned")
            self._return(count)
            grant._value = 0
            self._owners.pop(grant, None)
            return
        self._owners.pop(grant, None)
        waiters = self._waiters
        for index, entry in enumerate(waiters):
            if entry[2] is grant:
                del waiters[index]
                if index == 0:
                    self._return(0)
                break

    def hold(self, duration: float, priority: int = 0,
             owner: str = "") -> Generator:
        """Generator: hold one unit for *duration*; returns the wait.

        Interrupt-safe: the unit is returned, and the busy time actually
        consumed and the started-service count are settled, in a
        ``finally``, so a process preempted mid-hold leaks nothing and
        the meters do not under-report.
        """
        sim = self.sim
        requested = sim.now
        grant = self.acquire(1, priority, owner)
        started = None
        try:
            yield grant
            started = sim.now
            yield sim.timeout(duration)
        finally:
            if started is not None:
                self.busy_time += sim.now - started
                self.served += 1
            self.cancel(grant)
        return started - requested

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Held fraction of the capacity over ``[0, horizon]``."""
        horizon = horizon if horizon is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / (horizon * self.capacity))

    def outstanding_summary(self) -> Optional[str]:
        """One-line description of held units/waiters, or None if idle."""
        held = self.capacity - self._available
        waiting = len(self._waiters)
        if not held and not waiting:
            return None
        message = (f"Resource {self.name or '<anonymous>'!r}: "
                   f"{held}/{self.capacity} unit(s) held")
        owners = sorted(str(owner) for grant, owner in self._owners.items()
                        if grant._triggered)
        if owners:
            message += f" (owners: {', '.join(owners)})"
        if waiting:
            message += f", {waiting} request(s) waiting"
        return message


class Transfer(Event):
    """A pending or in-flight transfer on a :class:`Link`.

    The transfer is its own completion event: it fires by itself, with
    the queueing delay (``started_at - enqueued_at``) as its value, so
    manual :meth:`trigger`/:meth:`fail` are rejected.  The link pushes
    it as its completion entry; that first dispatch finishes the link's
    work and triggers the transfer, whose second dispatch resumes the
    waiter and runs the callbacks like any event's.
    """

    __slots__ = ("link", "nbytes", "traffic_class", "priority",
                 "enqueued_at", "started_at", "start_event")

    def __init__(self, link: "Link", nbytes: int, traffic_class: str,
                 priority: int, start_event: Optional[Event] = None):
        sim = link.sim
        # Inlined Event.__init__: one transfer per bus, DRAM or channel
        # hop makes this a hot allocation.
        self.sim = sim
        self.callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self.link = link
        self.nbytes = nbytes
        self.traffic_class = traffic_class
        self.priority = priority
        self.enqueued_at = sim.now
        self.started_at: Optional[float] = None
        self.start_event = start_event

    def trigger(self, value: Any = None) -> Event:
        raise SimulationError("a Transfer fires by itself; trigger() is "
                              "not allowed")

    def fail(self, exception: BaseException) -> Event:
        raise SimulationError("a Transfer fires by itself; fail() is "
                              "not allowed")

    def _dispatch(self) -> None:
        if not self._triggered:
            # The link finishing: start the next queued transfer, then
            # trigger this one on the same-instant lane.
            link = self.link
            link._busy = False
            if link._queue:
                link._start(heappop(link._queue)[2])
            self._triggered = True
            self._value = self.started_at - self.enqueued_at
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._lane.append((sim.now, seq, self, ()))
            return
        # Event._dispatch, inlined; a transfer cannot fail.
        waiter = self._waiter
        callbacks = self.callbacks
        self.callbacks = _DISPATCHED
        if waiter is not None:
            self._waiter = None
            waiter._waiting_on = None
            waiter._resume(self._value, None)
        if callbacks:
            for fn in callbacks:
                fn(self)

    __call__ = _dispatch


class Link:
    """A serializing, bandwidth-limited data link.

    ``bandwidth`` is in **bytes per microsecond** (1 GB/s == 1000 B/us,
    using decimal giga to match the paper's GB/s figures).  Transfers are
    served one at a time; each occupies the link for
    ``nbytes / bandwidth`` us.  Every link accumulates per-traffic-class
    busy time, from which all utilization figures are derived.  A link
    built with a ``bin_width`` (us) also bins each class's bytes into
    :class:`~repro.sim.stats.TimeBins` for the bandwidth timelines of
    paper Fig 2(c,d) and Fig 7(b); only the system bus keeps one.
    """

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "",
                 bin_width: Optional[float] = None):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.name = name
        self.bin_width = bin_width
        self._busy = False
        self._queue: List[Tuple[int, int, Transfer]] = []
        self._seq = 0
        sim.register_resource(self)
        self.busy_time: dict = {}
        self.byte_bins: dict = {}

    @property
    def queue_length(self) -> int:
        """Number of transfers waiting behind the in-flight one."""
        return len(self._queue)

    def outstanding_summary(self) -> Optional[str]:
        """One-line description of in-flight work, or None if idle."""
        if not self._busy and not self._queue:
            return None
        message = f"Link {self.name or '<anonymous>'!r}: "
        message += "transfer in flight" if self._busy else "idle"
        if self._queue:
            message += f", {len(self._queue)} queued"
        return message

    def transfer(self, nbytes: int, traffic_class: str = "io",
                 priority: int = 0) -> Transfer:
        """Queue a transfer; the returned :class:`Transfer` fires on
        completion.

        The event value is the queueing delay (time spent waiting for the
        link before service began), which latency-breakdown experiments
        use to attribute contention to this link.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        item = Transfer(self, nbytes, traffic_class, priority)
        if self._busy:
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, item))
        else:
            self._start(item)
        return item

    def transfer_with_start(self, nbytes: int, traffic_class: str = "io",
                            priority: int = 0) -> Tuple[Event, Transfer]:
        """Like :meth:`transfer`, also returning a service-start event.

        Returns ``(start, transfer)``: *start* fires the moment the link
        begins serving this transfer (after any queueing), *transfer*
        at completion.  Cut-through NoC hops use *start* to forward the
        packet header while the tail is still serializing.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        start = Event(self.sim)
        item = Transfer(self, nbytes, traffic_class, priority,
                        start_event=start)
        if self._busy:
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, item))
        else:
            self._start(item)
        return start, item

    def _start(self, item: Transfer) -> None:
        self._busy = True
        sim = self.sim
        start = sim.now
        item.started_at = start
        if item.start_event is not None:
            item.start_event.trigger(start)
        nbytes = item.nbytes
        duration = nbytes / self.bandwidth
        end = start + duration
        cls = item.traffic_class
        busy_time = self.busy_time
        busy_time[cls] = busy_time.get(cls, 0.0) + duration
        if self.bin_width is not None:
            bins = self.byte_bins.get(cls)
            if bins is None:
                bins = self.byte_bins[cls] = TimeBins(self.bin_width)
            bins.add(start, nbytes)
        # The transfer is its own completion entry (Transfer._dispatch).
        sim._seq = seq = sim._seq + 1
        if end == start:  # a duration the float clock absorbs
            sim._lane.append((end, seq, item, ()))
        else:
            heappush(sim._queue, (end, seq, item, ()))

    # -- reporting ----------------------------------------------------------

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the link was busy over ``[0, horizon]``."""
        horizon = horizon if horizon is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        busy = sum(self.busy_time.values())
        return min(1.0, busy / horizon)

    def bandwidth_timeline(self, traffic_class: str):
        """``(times, bytes_per_us)`` series for one traffic class.

        Empty for a class that never moved and on a link built without
        a ``bin_width``.
        """
        bins = self.byte_bins.get(traffic_class)
        if bins is None:
            return [], []
        times, totals = bins.series()
        return times, [total / bins.width for total in totals]

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Checkpoint the link's accumulated meters (idle links only).

        In-flight or queued transfers hold generator state that cannot
        be serialized, so snapshotting a busy link is an error -- the
        checkpoint layer only runs at device quiescence, where every
        link is idle by construction.
        """
        if self._busy or self._queue:
            raise RuntimeError(
                f"cannot snapshot busy link {self.name!r} "
                f"(queued={len(self._queue)})"
            )
        return {
            "busy_time": dict(self.busy_time),
            "byte_bins": {cls: bins.state_dict()
                          for cls, bins in self.byte_bins.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore meters captured by :meth:`state_dict`."""
        self.busy_time = {cls: float(v)
                          for cls, v in state["busy_time"].items()}
        self.byte_bins = {}
        for cls, bins_state in state["byte_bins"].items():
            bins = self.byte_bins[cls] = TimeBins()
            bins.load_state(bins_state)


class Store:
    """An unbounded FIFO queue connecting processes.

    ``put`` never blocks; ``get`` returns an event that fires with the
    oldest item once one is available.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        sim.register_resource(self)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        evt = Event(self.sim)
        if self._items:
            evt.trigger(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def peek_all(self) -> list:
        """Snapshot of queued items (oldest first) without removal."""
        return list(self._items)

    def outstanding_summary(self) -> Optional[str]:
        """Undelivered items, or None.  Parked getters are normal idle
        state (consumer processes waiting for work), so only queued
        items count as outstanding."""
        if not self._items:
            return None
        return (f"Store {self.name or '<anonymous>'!r}: "
                f"{len(self._items)} item(s) queued")
