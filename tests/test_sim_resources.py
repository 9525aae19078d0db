"""Unit tests for Resource, Link, and Store."""

import pytest

from repro.sim import Link, Resource, Simulator, Store, Transfer
from repro.sim.kernel import SimulationError


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = [res.acquire(), res.acquire(), res.acquire()]
    sim.run()
    assert grants[0].triggered and grants[1].triggered
    assert not grants[2].triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_wakes_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.acquire()
    second = res.acquire()
    sim.run()
    assert first.triggered and not second.triggered
    res.release()
    sim.run()
    assert second.triggered


def test_resource_priority_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim):
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    def waiter(sim, tag, priority):
        yield sim.timeout(1.0)  # enqueue after holder owns the slot
        yield res.acquire(priority=priority)
        order.append(tag)
        res.release()

    sim.process(holder(sim))
    sim.process(waiter(sim, "low", priority=5))
    sim.process(waiter(sim, "high", priority=0))
    sim.run()
    assert order == ["high", "low"]


def test_resource_release_when_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


# ---------------------------------------------------------------- Link


def test_link_service_time():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)  # 1 GB/s
    done_times = []

    def mover(sim):
        yield link.transfer(4096)
        done_times.append(sim.now)

    sim.process(mover(sim))
    sim.run()
    assert done_times == [pytest.approx(4.096)]


def test_link_serializes_transfers():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    finish = []

    def mover(sim, tag):
        wait = yield link.transfer(1000)
        finish.append((tag, sim.now, wait))

    for tag in range(3):
        sim.process(mover(sim, tag))
    sim.run()
    times = [t for _tag, t, _w in finish]
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
    waits = [w for _tag, _t, w in finish]
    assert waits == [pytest.approx(0.0), pytest.approx(1.0), pytest.approx(2.0)]


def test_link_priority_preempts_queue_order():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    order = []

    def mover(sim, tag, priority, start):
        yield sim.timeout(start)
        yield link.transfer(1000, priority=priority)
        order.append(tag)

    sim.process(mover(sim, "first", 0, 0.0))     # occupies the link
    sim.process(mover(sim, "low", 5, 0.1))       # queues behind
    sim.process(mover(sim, "high", 0, 0.2))      # should jump the queue
    sim.run()
    assert order == ["first", "high", "low"]


def test_link_per_class_accounting():
    sim = Simulator()
    link = Link(sim, bandwidth=100.0)

    def mover(sim):
        yield link.transfer(500, traffic_class="io")
        yield link.transfer(300, traffic_class="gc")

    sim.process(mover(sim))
    sim.run()
    assert link.busy_time["io"] == 500 / link.bandwidth
    assert link.busy_time["gc"] == 300 / link.bandwidth
    assert link.utilization() == pytest.approx(1.0)
    assert link.busy_time["gc"] / sim.now == pytest.approx(3.0 / 8.0)


def test_link_bandwidth_timeline():
    def timeline(bin_width):
        sim = Simulator()
        link = Link(sim, bandwidth=1000.0, bin_width=bin_width)

        def mover(sim):
            yield link.transfer(2000, traffic_class="io")  # ends at 2us
            yield sim.timeout(10.0)
            yield link.transfer(3000, traffic_class="io")  # starts at 12us

        sim.process(mover(sim))
        sim.run()
        assert link.busy_time["io"] == 5.0
        return link.bandwidth_timeline("io"), link.byte_bins

    series, bins = timeline(10.0)
    assert series == ([0.0, 10.0], [200.0, 300.0])
    assert list(bins) == ["io"]
    # Without a bin width the link meters busy time only.
    assert timeline(None) == (([], []), {})


def test_link_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth=0.0)
    link = Link(sim, bandwidth=10.0)
    with pytest.raises(ValueError):
        link.transfer(0)


def test_transfer_costs_two_kernel_entries():
    """A transfer on an idle link is one object and two kernel entries:
    the link finishing it, then its own dispatch.  ``transfer_with_start``
    adds the start event's one."""
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    seq = sim._seq
    transfer = link.transfer(1000)
    assert type(transfer) is Transfer and transfer.link is link
    sim.run()
    assert sim._seq - seq == 2
    assert (transfer.triggered, transfer.value, sim.now) == (True, 0.0, 1.0)

    seq = sim._seq
    start, transfer = link.transfer_with_start(500)
    assert type(transfer) is Transfer and type(start) is not Transfer
    sim.run()
    assert sim._seq - seq == 3
    assert (start.value, transfer.value, sim.now) == (1.0, 0.0, 1.5)


def test_transfer_fires_by_itself():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    first = link.transfer(1000)
    queued = link.transfer(1000)
    for transfer in (first, queued):
        with pytest.raises(SimulationError, match="fires by itself"):
            transfer.trigger()
    sim.run()
    assert (first.value, queued.value, sim.now) == (0.0, 1.0, 2.0)
    with pytest.raises(SimulationError, match="fires by itself"):
        first.trigger()


def test_transfer_resumes_its_waiter_before_its_callbacks():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    order = []

    def mover(transfer):
        wait = yield transfer
        order.append(("waiter", wait))

    first = link.transfer(1000)
    sim.process(mover(first))
    sim.run(until=0.5)
    first.add_callback(lambda event: order.append(("callback", event.value)))
    sim.process(mover(link.transfer(500)))
    sim.run()
    assert order == [("waiter", 0.0), ("callback", 0.0), ("waiter", 0.5)]


def test_pending_summary_names_the_link_finishing_a_transfer():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, name="system_bus")
    anonymous = Link(sim, bandwidth=1000.0)

    def mover():
        yield link.transfer(1000)

    sim.process(mover(), name="io")
    anonymous.transfer(2000)
    sim.run(until=0.5)
    assert sim.pending_summary() == [
        "t=1.000us Link 'system_bus' transfer finishing "
        "(resumes process 'io')",
        "t=2.000us Link '<anonymous>' transfer finishing",
    ]

    def stop():
        raise KeyError("stop")

    # Due at t=1.0 behind the link's entry: the link finishes and
    # triggers the transfer, then this raises before the lane runs.
    sim.schedule(0.5, stop)
    with pytest.raises(KeyError):
        sim.run()
    assert sim.pending_summary()[0] == \
        "t=1.000us transfer resuming process 'io'"


# ---------------------------------------------------------------- Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer(sim):
        for item in ("a", "b", "c"):
            yield sim.timeout(1.0)
            store.put(item)

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer(sim))
    sim.schedule(5.0, store.put, "late")
    sim.run()
    assert got == [(5.0, "late")]


def test_store_len_and_peek():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.peek_all() == [1, 2]


# ------------------------------------------------- outstanding-hold reports


def test_resource_outstanding_summary_names_owners():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="ecc_lanes")
    assert res.outstanding_summary() is None
    first = res.acquire(owner="decoder-a")
    res.acquire(owner="decoder-b")
    res.acquire(owner="queued")
    sim.run()
    summary = res.outstanding_summary()
    assert "ecc_lanes" in summary
    assert "2/2" in summary
    assert "decoder-a" in summary and "decoder-b" in summary
    assert "queued" not in summary.split("owners:")[1].split(")")[0]
    assert "1 request(s) waiting" in summary
    res.cancel(first)
    sim.run()
    assert "decoder-a" not in res.outstanding_summary()


def test_outstanding_summary_counts_every_unit_of_a_grant():
    sim = Simulator()
    pool = Resource(sim, capacity=4, name="sq_slots")
    assert pool.outstanding_summary() is None
    grant = pool.acquire(3, owner="tenant0")
    sim.run()
    summary = pool.outstanding_summary()
    assert "sq_slots" in summary and "3/4" in summary
    assert "tenant0" in summary
    assert grant.value == 3
    pool.cancel(grant)
    assert pool.outstanding_summary() is None


def test_simulator_collects_outstanding_holds():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="bus")
    res.acquire(owner="dma")
    sim.run()
    holds = sim.outstanding_holds()
    assert len(holds) == 1
    assert "bus" in holds[0] and "dma" in holds[0]
    res.release()
    assert sim.outstanding_holds() == []


def test_release_without_grant_drops_oldest_owner_label():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="r")
    res.acquire(owner="old")
    res.acquire(owner="new")
    sim.run()
    res.release()
    summary = res.outstanding_summary()
    assert "new" in summary and "old" not in summary


def _pool_view(pool):
    return (pool.in_use, list(pool._owners.values()),
            pool.outstanding_summary())


def test_refused_token_release_leaves_the_pool_unchanged():
    sim = Simulator()
    full = Resource(sim, capacity=4, name="full")
    with pytest.raises(RuntimeError, match="over-released"):
        full.release(1)
    assert full.in_use == 0 and full.outstanding_summary() is None

    pool = Resource(sim, capacity=4, name="held")
    pool.acquire(2, owner="x")
    sim.run()
    before = _pool_view(pool)
    assert "x" in before[2]
    with pytest.raises(RuntimeError, match="over-released"):
        pool.release(3)
    assert _pool_view(pool) == before


def test_refused_double_cancel_leaves_the_pool_unchanged():
    sim = Simulator()
    pool = Resource(sim, capacity=4, name="held")
    big = pool.acquire(3, owner="x")
    pool.acquire(1, owner="y")
    sim.run()
    pool.cancel(big)
    before = _pool_view(pool)
    assert before[0] == 1 and "y" in before[2]
    with pytest.raises(RuntimeError, match="over-released"):
        pool.cancel(big)
    assert _pool_view(pool) == before


def test_second_cancel_of_a_granted_acquire_is_refused():
    """A second cancel of one grant must not hand back tokens another
    holder owns, even where the pool has room for them."""
    sim = Simulator()
    pool = Resource(sim, capacity=4, name="held")
    x_grant = pool.acquire(2, owner="x")
    pool.acquire(2, owner="y")
    sim.run()
    pool.cancel(x_grant)
    before = _pool_view(pool)
    assert before[0] == 2 and "y" in before[2]
    with pytest.raises(RuntimeError, match="already returned"):
        pool.cancel(x_grant)
    assert _pool_view(pool) == before


def _resource_view(res):
    return (res.in_use, res.queue_length, list(res._owners.values()),
            res.outstanding_summary())


def test_second_cancel_of_a_granted_request_is_refused():
    """A second cancel of one grant must not free the slot another
    holder owns, nor the one a waiter was just handed."""
    sim = Simulator()
    res = Resource(sim, capacity=2, name="pair")
    a_grant = res.acquire(owner="a")
    res.acquire(owner="b")
    sim.run()
    res.cancel(a_grant)
    before = _resource_view(res)
    assert before[0] == 1 and "b" in before[3]
    with pytest.raises(RuntimeError, match="already returned"):
        res.cancel(a_grant)
    assert _resource_view(res) == before

    single = Resource(sim, capacity=1, name="single")
    first = single.acquire(owner="first")
    single.acquire(owner="second")
    sim.run()
    single.cancel(first)
    sim.run()
    before = _resource_view(single)
    assert before[0] == 1 and "second" in before[3]
    with pytest.raises(RuntimeError, match="already returned"):
        single.cancel(first)
    assert _resource_view(single) == before


def test_repeated_cancel_of_a_queued_request_changes_nothing():
    """A queued request leaves the queue at its first cancel, so a
    repeat after the slot ahead of it was returned finds nothing."""
    sim = Simulator()
    res = Resource(sim, capacity=1, name="single")
    a_grant = res.acquire(owner="a")
    b_grant = res.acquire(owner="b")
    res.cancel(b_grant)
    res.cancel(a_grant)
    res.cancel(b_grant)
    assert _resource_view(res) == (0, 0, [], None)
    late = res.acquire()
    later = res.acquire()
    assert late.triggered and not later.triggered
    assert _resource_view(res)[:2] == (1, 1)
    sim.run()
    assert not b_grant.triggered


def test_cancel_of_a_queued_request_keeps_the_grant_order():
    """Removing a queued request, the head included, leaves the rest
    of the queue in (priority, arrival) order."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []
    held = res.acquire()
    grants = {tag: res.acquire(priority=priority)
              for tag, priority in (("x", 0), ("y", 1), ("z", 0))}
    for tag, grant in grants.items():
        grant.add_callback(lambda event, tag=tag: order.append(tag))
    res.cancel(grants["x"])
    res.cancel(held)
    for _ in range(2):
        sim.run()
        res.release()
    assert order == ["z", "y"] and res.in_use == 0


def _grant_log(res, requests):
    """Acquire each ``(tag, n, priority)``; log tags as grants fire."""
    order = []
    grants = {}
    for tag, n, priority in requests:
        grant = grants[tag] = res.acquire(n, priority=priority)
        grant.add_callback(lambda event, tag=tag: order.append(tag))
    return order, grants


def test_mixed_priorities_with_multi_unit_requests():
    """Priority goes first, FIFO within a priority, and a head that does
    not fit blocks smaller requests behind it."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    res.acquire(4)
    order, grants = _grant_log(res, [
        ("a", 3, 1), ("b", 1, 1), ("c", 2, 0), ("d", 2, 0), ("e", 1, 2)])
    assert res.queue_length == 5
    res.release(2)              # c fits; d does not, and blocks a, b, e
    sim.run()
    assert order == ["c"] and res.in_use == 4
    res.release(1)              # one unit free: d (2) still blocks
    sim.run()
    assert order == ["c"] and res.in_use == 3
    res.release(1)              # d fits; a (3) is now the head
    sim.run()
    assert order == ["c", "d"] and res.in_use == 4
    res.cancel(grants["c"])     # two free: a (3) blocks b and e
    sim.run()
    assert order == ["c", "d"] and res.in_use == 2
    res.cancel(grants["d"])
    sim.run()
    assert order == ["c", "d", "a", "b"] and res.in_use == 4
    assert res.queue_length == 1 and not grants["e"].triggered
    assert (grants["a"].value, grants["b"].value) == (3, 1)


def test_urgent_request_that_fits_is_granted_ahead_of_the_queue():
    sim = Simulator()
    res = Resource(sim, capacity=4)
    res.acquire(2)
    blocked = res.acquire(3)            # head of line, does not fit
    urgent = res.acquire(2, priority=-1)
    assert urgent.triggered and not blocked.triggered
    late = res.acquire(1)               # same priority as the head: waits
    assert not late.triggered and res.queue_length == 2


def test_cancel_of_a_queued_head_releases_smaller_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=4, name="dbuf")
    holder = res.acquire(2, owner="holder")
    order, grants = _grant_log(res, [
        ("big", 4, 0), ("one", 1, 0), ("other", 1, 0), ("last", 1, 0)])
    assert res.queue_length == 4
    res.cancel(grants["big"])
    sim.run()
    assert order == ["one", "other"] and res.queue_length == 1
    assert res.in_use == 4 and not grants["big"].triggered
    res.cancel(holder)
    sim.run()
    assert order == ["one", "other", "last"] and res.in_use == 3


def test_interrupted_hold_settles_busy_time_and_served_count():
    sim = Simulator()
    plane = Resource(sim, 1, name="plane0")
    waits = []

    def op(duration):
        waits.append((yield from plane.hold(duration)))

    first = sim.process(op(10.0))
    sim.process(op(4.0))
    never = sim.process(op(1.0))
    # Closing a generator mid-hold, as collecting a finished device
    # does, runs hold's finally: mid-service for first, queued for never.
    sim.schedule(2.0, first.generator.close)
    sim.schedule(3.0, never.generator.close)
    sim.run()
    # first held 2 us, queued then held its full 4 us after waiting 2.
    assert plane.busy_time == pytest.approx(6.0)
    assert plane.served == 2
    assert waits == [pytest.approx(2.0)]
    assert plane.in_use == 0 and plane.queue_length == 0
    assert plane.utilization(6.0) == pytest.approx(1.0)
