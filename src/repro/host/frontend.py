"""The NVMe multi-queue host frontend: tenants -> arbiter -> FTL.

:class:`MultiQueueFrontend` owns one
:class:`~repro.host.queues.QueuePair` per tenant stream, the tenant
drivers that fill them (closed-loop, Poisson, trace replay), a
per-tenant dispatch :class:`~repro.host.qos.TokenBucket`, and the
pluggable :mod:`~repro.host.arbiter` that decides fetch order.  A
single dispatcher process multiplexes the queues onto the FTL:

1. wait until the device has a free command slot (the NVMe-level
   queue depth, ``ftl.host.queue_depth``);
2. ask the arbiter for the next queue among those that are non-empty
   *and* have a dispatch token (rate-limited tenants with an empty
   bucket are ineligible -- that is where throttling bites);
3. fetch the head entry, stamp the request with its stream's datapath
   priority, and hand it to :meth:`~repro.ftl.Ftl.submit`;
4. on completion, post the CQ entry, free the slot, and record the
   tenant's end-to-end latency (doorbell to completion, submission
   queue wait included).

Because the dispatcher never exceeds the device queue depth, the
FTL-side :class:`~repro.controller.host.HostInterface` slot pool never
blocks in tenant mode -- admission control has already happened at the
frontend, per tenant, under the arbiter's policy.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Sequence

from ..errors import ConfigError
from ..sim import Event, Simulator
from .arbiter import Arbiter, make_arbiter
from .qos import TokenBucket
from .queues import QueuePair, Sqe
from .tenant import TenantSpec, TenantStats

__all__ = ["MultiQueueFrontend"]


class MultiQueueFrontend:
    """N tenant queue pairs multiplexed onto one FTL by an arbiter."""

    def __init__(self, sim: Simulator, ftl, tenants: Sequence[TenantSpec],
                 arbiter: str = "rr", arb_burst: int = 1):
        if not tenants:
            raise ConfigError("frontend needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")
        self.sim = sim
        self.ftl = ftl
        self.tenants = list(tenants)
        self.device_queue_depth = ftl.host.queue_depth
        self.page_size = ftl.geometry.page_size
        self.queue_pairs: List[QueuePair] = [
            QueuePair(sim, qid, spec.qos.sq_depth, weight=spec.qos.weight,
                      priority=spec.qos.priority, name=spec.name)
            for qid, spec in enumerate(self.tenants)
        ]
        self.buckets: List[TokenBucket] = [
            spec.qos.make_bucket(sim) for spec in self.tenants
        ]
        self.stats: List[TenantStats] = [
            TenantStats(spec.name) for spec in self.tenants
        ]
        self.arbiter: Arbiter = make_arbiter(arbiter, self.queue_pairs,
                                             arb_burst)
        self.arbiter_name = arbiter
        self._inflight = 0
        self._drivers_running = 0
        self._wakeup: Optional[Event] = None
        self._started = False

    # -- observability -------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Commands dispatched to the FTL and not yet completed."""
        return self._inflight

    def reset_stats(self) -> None:
        """Start fresh per-tenant recorders (end of the warmup window)."""
        self.stats = [TenantStats(spec.name) for spec in self.tenants]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch every tenant driver plus the dispatcher (idempotent)."""
        if self._started:
            return
        self._started = True
        for qid, spec in enumerate(self.tenants):
            if spec.driver == "closed":
                for worker in range(spec.queue_depth):
                    self._spawn_driver(self._closed_loop(qid, spec),
                                       f"{spec.name}_cl{worker}")
            elif spec.driver == "poisson":
                rng = random.Random(spec.seed ^ 0xA221)
                self._spawn_driver(self._poisson_loop(qid, spec, rng),
                                   f"{spec.name}_poisson")
            else:
                self._spawn_driver(self._trace_loop(qid, spec),
                                   f"{spec.name}_trace")
        self.sim.process(self._dispatch_loop(), name="mq_dispatch")

    def start_scripted(self, drivers: Sequence[Generator]) -> None:
        """Launch externally supplied driver generators plus the dispatcher.

        The fuzzer's scripted replay path: instead of the stock
        closed/poisson/trace drivers, each generator in *drivers* feeds
        its queue pair directly via :meth:`try_submit` /
        :meth:`submit_blocking` on its own schedule.  The dispatcher,
        arbiters, QoS buckets, and per-tenant stats behave exactly as
        in :meth:`start`.  Idempotent like :meth:`start`; the two entry
        points are mutually exclusive per frontend instance.
        """
        if self._started:
            return
        self._started = True
        for index, generator in enumerate(drivers):
            self._spawn_driver(generator, f"scripted_driver{index}")
        self.sim.process(self._dispatch_loop(), name="mq_dispatch")

    def _spawn_driver(self, generator: Generator, name: str) -> None:
        self._drivers_running += 1
        self.sim.process(self._wrap_driver(generator), name=name)

    def _wrap_driver(self, generator: Generator) -> Generator:
        yield from generator
        self._drivers_running -= 1
        self._kick()

    # -- admission -----------------------------------------------------------

    def try_submit(self, qid: int, request,
                   done: Optional[Event] = None) -> Optional[Sqe]:
        """Non-blocking admission: post to the SQ, or drop when full.

        Returns the posted :class:`Sqe`, or ``None`` for a drop (the
        drop is recorded against the tenant).
        """
        qp = self.queue_pairs[qid]
        sqe = self._make_sqe(qid, request, done)
        if qp.post(sqe):
            self.stats[qid].record_arrival(True)
            self._kick()
            return sqe
        self.stats[qid].record_arrival(False)
        return None

    def submit_blocking(self, qid: int, request,
                        done: Optional[Event] = None) -> Generator:
        """Generator: backpressured admission -- wait for a ring slot.

        The entry's arrival stamp is the *intended* arrival time, so
        tenant latency includes any time spent blocked on a full ring.
        """
        qp = self.queue_pairs[qid]
        sqe = self._make_sqe(qid, request, done)
        while not qp.post(sqe):
            yield qp.wait_for_space()
        self.stats[qid].record_arrival(True)
        self._kick()
        return sqe

    def _make_sqe(self, qid: int, request,
                  done: Optional[Event]) -> Sqe:
        # The stream's QoS priority rides on the request through every
        # shared datapath resource (host link, bus, DRAM, flash bus).
        request.priority = self.tenants[qid].qos.priority
        return Sqe(request, qid, self.sim.now,
                   done if done is not None else self.sim.event())

    # -- tenant drivers ------------------------------------------------------

    def _closed_loop(self, qid: int, spec: TenantSpec) -> Generator:
        while True:
            request = spec.workload.next_request()
            if request is None:
                return
            sqe = yield from self.submit_blocking(qid, request)
            yield sqe.done

    def _poisson_loop(self, qid: int, spec: TenantSpec,
                      rng: random.Random) -> Generator:
        interval = spec.arrival_interval_us
        while True:
            yield self.sim.timeout(rng.expovariate(1.0 / interval))
            request = spec.workload.next_request()
            if request is None:
                return
            yield from self._open_admit(qid, spec, request)

    def _trace_loop(self, qid: int, spec: TenantSpec) -> Generator:
        workload = spec.workload
        if not hasattr(workload, "peek_timestamp"):
            raise ConfigError(
                f"tenant {spec.name}: trace driver needs a workload with "
                "peek_timestamp() (see TraceWorkload)"
            )
        while True:
            timestamp = workload.peek_timestamp()
            if timestamp is None:
                return
            at = timestamp * spec.time_scale
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            request = workload.next_request()
            if request is None:
                return
            yield from self._open_admit(qid, spec, request)

    def _open_admit(self, qid: int, spec: TenantSpec, request) -> Generator:
        """Open-loop admission under the tenant's full-queue policy."""
        if spec.qos.drop_on_full:
            self.try_submit(qid, request)
        else:
            yield from self.submit_blocking(qid, request)

    # -- dispatch ------------------------------------------------------------

    def _eligibility(self) -> List[bool]:
        return [
            len(qp) > 0 and bucket.ready(1.0)
            for qp, bucket in zip(self.queue_pairs, self.buckets)
        ]

    def _earliest_ready(self) -> Optional[float]:
        """When the soonest throttled non-empty queue becomes eligible."""
        times = [
            bucket.ready_at(1.0)
            for qp, bucket in zip(self.queue_pairs, self.buckets)
            if len(qp) > 0 and not bucket.ready(1.0)
        ]
        return min(times) if times else None

    def _all_idle(self) -> bool:
        return (self._drivers_running == 0 and self._inflight == 0
                and all(len(qp) == 0 for qp in self.queue_pairs))

    def _signal(self) -> Event:
        if self._wakeup is None or self._wakeup.triggered:
            self._wakeup = self.sim.event()
        return self._wakeup

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.trigger(None)

    def _dispatch_loop(self) -> Generator:
        while True:
            if self._inflight >= self.device_queue_depth:
                yield self._signal()
                continue
            choice = self.arbiter.select(self._eligibility())
            if choice is not None:
                self._dispatch(choice)
                continue
            if self._all_idle():
                return
            ready_at = self._earliest_ready()
            if ready_at is not None and ready_at > self.sim.now:
                # Sleep until the earliest bucket refill, but wake early
                # for new arrivals or completions.
                yield self.sim.any_of([
                    self._signal(),
                    self.sim.timeout(ready_at - self.sim.now),
                ])
            else:
                yield self._signal()

    def _dispatch(self, qid: int) -> None:
        qp = self.queue_pairs[qid]
        self.buckets[qid].take(1.0)
        sqe = qp.pop()
        self.stats[qid].record_dispatch(sqe.sq_wait)
        self._inflight += 1
        proc = self.ftl.submit(sqe.request)
        self.sim.process(self._completion(qid, sqe, proc),
                         name=f"cq_{qp.name}")

    def _completion(self, qid: int, sqe: Sqe, proc: Event) -> Generator:
        yield proc
        self.queue_pairs[qid].complete(sqe)
        self.stats[qid].record_completion(
            sqe.completed_at - sqe.arrival,
            sqe.request.bytes(self.page_size),
        )
        self._inflight -= 1
        if sqe.done is not None and not sqe.done.triggered:
            sqe.done.trigger(sqe)
        self._kick()
