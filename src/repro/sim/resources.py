"""Shared-resource primitives built on the DES kernel.

Three resources model every point of contention in the SSD:

* :class:`Resource` -- a counting semaphore with priority queueing.  Used
  for flash dies/planes (one operation at a time) and ECC engines.
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
from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, List, Optional, Tuple

from .kernel import _DISPATCHED, Event, SimulationError, Simulator
from .stats import TimeBins

__all__ = ["Resource", "Link", "Store", "Transfer", "TokenPool"]


class Resource:
    """A counting semaphore with priority-ordered FIFO queueing.

    Lower ``priority`` values are served first; ties are FIFO.  A holder
    must call :meth:`release` exactly once per granted request.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._owners: dict = {}
        sim.register_resource(self)

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self, priority: int = 0, owner: str = "") -> Event:
        """Ask for a slot; the returned event fires when granted.

        *owner* optionally labels the hold for quiescence diagnostics
        (see :meth:`outstanding_summary`).  Owner-labelled holds should
        be returned via :meth:`cancel` (the exception-safe pattern) so
        the label is cleared precisely; a plain :meth:`release` drops
        the oldest label, which is best-effort only.
        """
        grant = Event(self.sim)
        if owner:
            self._owners[grant] = owner
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.trigger(self)
        else:
            self._seq += 1
            heapq.heappush(self._waiters, (priority, self._seq, grant))
        return grant

    def release(self) -> None:
        """Return a slot, waking the highest-priority waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release on idle resource {self.name!r}")
        if self._owners:
            self._owners.pop(next(iter(self._owners)))
        self._release_slot()

    def _release_slot(self) -> None:
        if self._waiters:
            heapq.heappop(self._waiters)[2].trigger(self)
        else:
            self._in_use -= 1

    def cancel(self, grant: Event) -> None:
        """Abandon a request, whether or not it has been granted yet.

        The exception-safety primitive: a holder interrupted between
        ``request()`` and ``release()`` calls this from a ``finally``.
        If the grant already fired the slot is released; if it is still
        queued it leaves the queue at once, so a later :meth:`release`
        does not wake a waiter that no longer exists and a repeated
        cancel finds nothing to remove.  A granted request
        returns its slot once: the grant's value is cleared then, and a
        second cancel raises ``RuntimeError`` with nothing changed,
        rather than freeing a slot another holder owns.
        """
        if grant._triggered:
            if grant._value is not self:
                raise RuntimeError(
                    f"resource {self.name!r}: cancel of a grant whose "
                    f"slot was already returned")
            if self._in_use <= 0:
                raise RuntimeError(
                    f"release on idle resource {self.name!r}")
            self._owners.pop(grant, None)
            grant._value = None
            self._release_slot()
            return
        self._owners.pop(grant, None)
        waiters = self._waiters
        for index, entry in enumerate(waiters):
            if entry[2] is grant:
                # (priority, seq) keys are unique, so re-heapifying
                # keeps the grant order of the remaining waiters.
                del waiters[index]
                heapq.heapify(waiters)
                break

    def outstanding_summary(self) -> Optional[str]:
        """One-line description of held slots/waiters, or None if idle."""
        queued = self.queue_length
        if not self._in_use and not queued:
            return None
        message = (f"Resource {self.name or '<anonymous>'!r}: "
                   f"{self._in_use}/{self.capacity} slot(s) held")
        owners = sorted(str(owner) for grant, owner in self._owners.items()
                        if grant._triggered)
        if owners:
            message += f" (owners: {', '.join(owners)})"
        if queued:
            message += f", {queued} request(s) waiting"
        return message


class TokenPool:
    """A counted semaphore: acquire/release *n* tokens at a time.

    Grants are strictly FIFO -- a large request at the head of the queue
    blocks smaller later ones -- which models credit-based flow control
    (router input buffers) without starvation.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._waiters: Deque[Tuple[int, Event]] = deque()
        self._owners: dict = {}
        sim.register_resource(self)

    @property
    def available(self) -> int:
        """Tokens currently free."""
        return self._available

    @property
    def queue_length(self) -> int:
        """Number of pending acquire requests."""
        return len(self._waiters)

    def acquire(self, n: int = 1, owner: str = "") -> Event:
        """Request *n* tokens; the event fires when they are granted.

        *owner* optionally labels the hold for quiescence diagnostics;
        owner-labelled holds should be returned via :meth:`cancel` so
        the label is cleared precisely (a plain :meth:`release` drops
        the oldest label, best-effort only).
        """
        if n < 1:
            raise ValueError(f"must acquire >= 1 token, got {n}")
        if n > self.capacity:
            raise ValueError(
                f"request of {n} tokens exceeds capacity {self.capacity}"
            )
        grant = Event(self.sim)
        if owner:
            self._owners[grant] = owner
        if not self._waiters and self._available >= n:
            self._available -= n
            grant.trigger(n)
        else:
            self._waiters.append((n, grant))
        return grant

    def release(self, n: int = 1) -> None:
        """Return *n* tokens and grant queued requests in FIFO order."""
        if n < 1:
            raise ValueError(f"must release >= 1 token, got {n}")
        self._release_tokens(n)
        if self._owners:
            self._owners.pop(next(iter(self._owners)))

    def _release_tokens(self, n: int) -> None:
        # Refuse before mutating: a refused release leaves the pool,
        # and the holds it reports, exactly as they were.
        if self._available + n > self.capacity:
            raise RuntimeError(
                f"token pool {self.name!r} over-released "
                f"({self._available + n}/{self.capacity})"
            )
        self._available += n
        while self._waiters and self._available >= self._waiters[0][0]:
            count, grant = self._waiters.popleft()
            self._available -= count
            grant.trigger(count)

    def cancel(self, grant: Event) -> None:
        """Abandon an acquire, whether or not it has been granted yet.

        If the grant already fired, its token count (the grant value) is
        returned to the pool; if it is still queued it is removed so the
        tokens are never handed out.  A granted acquire returns its
        tokens once: the grant's value drops to 0 then, and a second
        cancel raises ``RuntimeError`` with nothing changed, rather than
        returning tokens another holder owns.
        """
        if grant._triggered:
            count = grant._value
            if not count:
                raise RuntimeError(
                    f"token pool {self.name!r} over-released: cancel of a "
                    f"grant whose tokens were already returned")
            self._release_tokens(count)
            grant._value = 0
            self._owners.pop(grant, None)
            return
        self._owners.pop(grant, None)
        for index, (_count, waiting) in enumerate(self._waiters):
            if waiting is grant:
                del self._waiters[index]
                break
        # Removing a head-of-line request may unblock smaller ones.
        while self._waiters and self._available >= self._waiters[0][0]:
            count, waiting = self._waiters.popleft()
            self._available -= count
            waiting.trigger(count)

    def outstanding_summary(self) -> Optional[str]:
        """One-line description of held tokens/waiters, or None if idle."""
        held = self.capacity - self._available
        waiting = len(self._waiters)
        if held <= 0 and waiting == 0:
            return None
        message = (f"TokenPool {self.name or '<anonymous>'!r}: "
                   f"{held}/{self.capacity} token(s) held")
        owners = sorted(str(owner) for grant, owner in self._owners.items()
                        if grant._triggered)
        if owners:
            message += f" (owners: {', '.join(owners)})"
        if waiting:
            message += f", {waiting} acquire(s) waiting"
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
        self.enqueued_at = sim._now
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
            sim._lane.append((sim._now, seq, self, ()))
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
        start = sim._now
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
