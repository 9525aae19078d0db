"""Golden dispatch fingerprints for the kernel and the datapath.

Every scenario here is pinned to two recorded hashes (see
:func:`tests.dispatch_recorder.fingerprint`):

* :data:`GOLDEN`, the *stream* hash: the ``(time, seq)`` key of every
  entry the kernel dispatches, off its heap or its same-instant lane,
  in dispatch order.  Same event orderings, same ``sim.now`` traces,
  same early exits from a wait, same sequence-counter advance.
* :data:`END_GOLDEN`, the *end-state* hash: the ``repr`` of what the
  scenario reports when it ends -- its trace and clock, and for a
  device the I/O, GC and stall counters -- without the sequence
  counter.

A change to how the kernel schedules work (fewer entries for the same
model) may move a stream hash on purpose; it must keep every end-state
hash.  A change to simulated behaviour moves both.  Together they keep
experiment outputs byte-identical across refactors of the kernel, the
contention layer and the datapath.

The values in :data:`GOLDEN` descend from fingerprints recorded while
the repository still carried two reference implementations -- a
callback-list kernel path and a layered generator-chain datapath -- and
every scenario agreed across all of them.  The poll-site scenarios
``preemptive_gc_quiet_wait`` and ``gc_destination_stall`` were first
recorded while the FTL/GC waits were still ``yield sim.timeout(...)``
loops, before they moved onto kernel polls.
``superblock_migration_claimed_wait`` was re-recorded when the
superblock migration began to wait on the garbage collector's poll grid
and to move pages through its relocator.  The nine datapath scenarios
with a starved flusher or a preemptive quiet wait had their stream
hashes re-recorded when those waits began to park on wake lists
instead of ticking; their end-state hashes did not move.  A mismatch
message prints the hash actually observed; a change that alters
simulated timing on purpose re-records it there.
"""

import hashlib

import pytest

from repro.controller import FlashController
from repro.errors import FlashError
from repro.flash import FlashBackend, FlashGeometry
from repro.flash.timing import ULL_TIMING
from repro.flash.geometry import PhysAddr
from repro.reliability import FaultInjector, ReliabilityConfig
from repro.sim import Link, Resource, Simulator, Store
from repro.sim.kernel import SimulationError
from tests.dispatch_recorder import fingerprint

#: Recorded stream hash per scenario (see the module docstring).
GOLDEN = {
    "allof_anyof_conditions": "26c7c5a4e36e2edf",
    "closed_holder_releases": "6e2eddb989689758",
    "ecc_retry_ladder": "05fe3500ae807fc3",
    "fault_injection_retry_semantics": "77417c3a63d9a2c8",
    "gc_copybacks_dedicated_bus": "017b5b65c50a5346",
    "gc_copybacks_fnoc": "1a1cdf5a4af7eb5d",
    "gc_destination_stall": "038039d8db615544",
    "gc_page_moves": "2b35af9fdf6cd29e",
    "late_add_callback_after_dispatch": "d4d3cb2fa8c6d3a6",
    "link_serialization_and_start_events": "4408aad6c33d1de6",
    "midop_blocking": "1707a6a35b4a8c8a",
    "midop_blocking_dssd": "bf41496d92f43865",
    "multiple_waiters_one_event": "a1d85878b0d94686",
    "preemptive_gc": "130574111beed973",
    "preemptive_gc_quiet_wait": "6cf2b32b97b82871",
    "process_join_and_return_value": "11865ffca8953fc8",
    "reliability_wear_faults": "0a1219d97e6d60c7",
    "reliability_wear_faults_baseline": "470dbe8d757bfb65",
    "resource_credit_flow": "2db8a798489f1e25",
    "resource_priority_scheduling": "b6421103d928316c",
    "ssd_point": "2a6761655fa02ac2",
    "store_fifo_handoff": "17a1ed841eeb4347",
    "superblock_migration_claimed_wait": "95eede4ccc63472f",
    "timeout_tie_ordering": "62fcd760ff3f9adc",
    "unchecked_copyback_reliability": "c8b79efc311bca03",
    "wear_retry_faults": "4c188ba93cb985e7",
}

#: Recorded end-state hash per scenario (see the module docstring).
END_GOLDEN = {
    "allof_anyof_conditions": "aca71e862c6f51bb",
    "closed_holder_releases": "b888578588a5e575",
    "ecc_retry_ladder": "7ed722268e1b930d",
    "fault_injection_retry_semantics": "74c391f738186cf3",
    "gc_copybacks_dedicated_bus": "a6df4d05cc98a54a",
    "gc_copybacks_fnoc": "157a513eb0472768",
    "gc_destination_stall": "28af0b61a941033b",
    "gc_page_moves": "702038e95359e439",
    "late_add_callback_after_dispatch": "fea2b65702768382",
    "link_serialization_and_start_events": "0e0272a9aac656bf",
    "midop_blocking": "f2c137ac0deed064",
    "midop_blocking_dssd": "a655bf4b40697e96",
    "multiple_waiters_one_event": "2de3a1418e5d84ce",
    "preemptive_gc": "c3097b151b1bd394",
    "preemptive_gc_quiet_wait": "fa4e4eeb6e50b1c8",
    "process_join_and_return_value": "980f6f8106d61c8d",
    "reliability_wear_faults": "7a7c23611d142b72",
    "reliability_wear_faults_baseline": "43716055600ab0cf",
    "resource_credit_flow": "04d162d1396d1d7b",
    "resource_priority_scheduling": "58373255e14bcf48",
    "ssd_point": "ca9e6eff7c998158",
    "store_fifo_handoff": "8e523473895a4921",
    "superblock_migration_claimed_wait": "5ecca8c11904c029",
    "timeout_tie_ordering": "2257c7a2cf5dcf18",
    "unchecked_copyback_reliability": "adcdf50076ebd069",
    "wear_retry_faults": "d6a7803a32c0e96f",
}

def assert_golden(name, observed):
    stream, end = observed
    assert end == END_GOLDEN.get(name), \
        f"{name}: end state {end} != golden {END_GOLDEN.get(name)}"
    assert stream == GOLDEN.get(name), \
        f"{name}: stream {stream} != golden {GOLDEN.get(name)}"


def assert_golden_scenario(name, scenario):
    """Run *scenario* on a fresh kernel; its fingerprint must be golden."""

    def run():
        sim = Simulator()
        trace = []
        scenario(sim, trace)
        sim.run()
        return trace, sim.now

    assert_golden(name, fingerprint(run))


# ---------------------------------------------------------------------------
# Kernel-level scenarios.
# ---------------------------------------------------------------------------

def test_timeout_tie_ordering():
    """Same-timestamp wakeups must dispatch in identical order."""

    def scenario(sim, trace):
        def worker(name, delay, steps):
            for step in range(steps):
                yield sim.timeout(delay)
                trace.append((sim.now, name, step))

        # Delays chosen so many workers collide on the same timestamps.
        for index in range(12):
            sim.process(worker(f"w{index}", 0.5 * (1 + index % 3), 20))

    assert_golden_scenario("timeout_tie_ordering", scenario)


def test_multiple_waiters_one_event():
    """A second waiter forces the callbacks list past the direct slot."""

    def scenario(sim, trace):
        evt = sim.event()

        def waiter(name):
            value = yield evt
            trace.append((sim.now, name, value))

        for index in range(5):
            sim.process(waiter(f"w{index}"))

        def firer():
            yield sim.timeout(2.0)
            evt.trigger(42)

        sim.process(firer())

    assert_golden_scenario("multiple_waiters_one_event", scenario)


def test_late_add_callback_after_dispatch():
    """Waiting on an already-fired event resumes at the current time."""

    def scenario(sim, trace):
        evt = sim.event()

        def firer():
            yield sim.timeout(1.0)
            evt.trigger("early")

        def late():
            yield sim.timeout(5.0)
            value = yield evt  # fired 4us ago
            trace.append((sim.now, "late", value))

        sim.process(firer())
        sim.process(late())

    assert_golden_scenario("late_add_callback_after_dispatch", scenario)


def test_process_join_and_return_value():
    def scenario(sim, trace):
        def child(delay, result):
            yield sim.timeout(delay)
            return result

        def parent():
            first = sim.process(child(3.0, "slow"))
            second = sim.process(child(1.0, "quick"))
            value = yield first
            trace.append((sim.now, "joined-first", value))
            value = yield second  # already finished: post-dispatch wait
            trace.append((sim.now, "joined-second", value))

        sim.process(parent())

    assert_golden_scenario("process_join_and_return_value", scenario)


def test_allof_anyof_conditions():
    def scenario(sim, trace):
        def child(delay, result):
            yield sim.timeout(delay)
            return result

        def coordinator():
            procs = [sim.process(child(1.0 + i * 0.5, i)) for i in range(4)]
            values = yield sim.all_of(procs)
            trace.append((sim.now, "all", tuple(values)))
            racers = [sim.process(child(2.0 + i, 10 + i)) for i in range(4)]
            winner, value = yield sim.any_of(racers)
            trace.append((sim.now, "any", value, winner is racers[0]))
            yield sim.all_of(racers)
            trace.append((sim.now, "drained"))

        sim.process(coordinator())

    assert_golden_scenario("allof_anyof_conditions", scenario)


# ---------------------------------------------------------------------------
# Leaving a wait early: a closed generator.
# ---------------------------------------------------------------------------

def test_interrupt_resource_holder_releases_in_finally():
    """A holder whose generator is closed mid-hold -- what collecting a
    finished device does -- returns its unit from ``Resource.hold``'s
    ``finally``, with the busy time it used, and the contender behind
    it is granted at once."""

    def scenario(sim, trace):
        resource = Resource(sim, capacity=1)

        def holder():
            try:
                yield from resource.hold(50.0)
                trace.append((sim.now, "holder-finished"))
            finally:
                trace.append((sim.now, "holder-closed", resource.in_use))

        def contender():
            yield sim.timeout(1.0)
            waited = yield from resource.hold(5.0)
            trace.append((sim.now, "contender-done", waited))

        def meters():
            trace.append((sim.now, "meters", resource.busy_time,
                          resource.served, resource.in_use))

        victim = sim.process(holder())
        sim.process(contender())
        sim.schedule(10.0, victim.generator.close)
        sim.schedule(60.0, meters)

    assert_golden_scenario("closed_holder_releases", scenario)


def test_fault_injection_retry_semantics():
    """Seeded channel/die faults replay the recorded retry schedule."""

    def scenario(sim, trace):
        geometry = FlashGeometry(channels=1, ways=1, dies=1, planes=2,
                                 blocks_per_plane=8, pages_per_block=8)
        backend = FlashBackend(sim, geometry, ULL_TIMING)
        controller = FlashController(sim, 0, backend, 1000.0)
        controller.fault_injector = FaultInjector(
            sim, channel_fault_rate=0.4, die_fault_rate=0.3, seed=7)

        def io():
            for page in range(6):
                addr = PhysAddr(0, 0, 0, 0, 0, page)
                breakdown = yield from controller.program_page(addr)
                trace.append((sim.now, "programmed", page,
                              round(breakdown.total, 9)))
            for page in range(6):
                addr = PhysAddr(0, 0, 0, 0, 0, page)
                breakdown = yield from controller.read_page(addr)
                trace.append((sim.now, "read", page,
                              round(breakdown.total, 9)))

        sim.process(io())

    assert_golden_scenario("fault_injection_retry_semantics", scenario)


# ---------------------------------------------------------------------------
# Resource-layer scenarios.
# ---------------------------------------------------------------------------

def test_resource_priority_scheduling():
    def scenario(sim, trace):
        resource = Resource(sim, capacity=2)

        def user(name, priority, hold):
            grant = resource.acquire(priority=priority)
            yield grant
            trace.append((sim.now, name, "granted"))
            yield sim.timeout(hold)
            resource.release()
            trace.append((sim.now, name, "released"))

        for index in range(8):
            sim.process(user(f"u{index}", priority=index % 3,
                             hold=1.0 + index * 0.25))

    assert_golden_scenario("resource_priority_scheduling", scenario)


def test_resource_credit_flow():
    """Multi-unit grants: strict FIFO with head-of-line blocking."""

    def scenario(sim, trace):
        pool = Resource(sim, capacity=4)

        def borrower(name, count, hold):
            grant = pool.acquire(count)
            yield grant
            trace.append((sim.now, name, "got", count))
            yield sim.timeout(hold)
            pool.release(count)

        sim.process(borrower("a", 3, 2.0))
        sim.process(borrower("b", 2, 1.0))
        sim.process(borrower("c", 4, 0.5))
        sim.process(borrower("d", 1, 1.5))

    assert_golden_scenario("resource_credit_flow", scenario)


def test_link_serialization_and_start_events():
    def scenario(sim, trace):
        link = Link(sim, bandwidth=100.0)

        def sender(name, nbytes, when):
            yield sim.timeout(when)
            start, done = link.transfer_with_start(nbytes, "io")
            yield start
            trace.append((sim.now, name, "start"))
            wait = yield done
            trace.append((sim.now, name, "done", wait))

        sim.process(sender("x", 500, 0.0))
        sim.process(sender("y", 300, 1.0))
        sim.process(sender("z", 700, 1.0))

    assert_golden_scenario("link_serialization_and_start_events", scenario)


def test_store_fifo_handoff():
    def scenario(sim, trace):
        store = Store(sim)

        def producer():
            for index in range(6):
                yield sim.timeout(1.0)
                store.put(index)

        def consumer(name):
            for _ in range(3):
                item = yield store.get()
                trace.append((sim.now, name, item))

        sim.process(producer())
        sim.process(consumer("c0"))
        sim.process(consumer("c1"))

    assert_golden_scenario("store_fifo_handoff", scenario)


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


# ---------------------------------------------------------------------------
# Datapath ops under contention.
#
# Each datapath op calls the controller, plane and ECC-engine stages,
# and both the recorded stream and the resource meters those stages
# settle must hold when the case is anything but common:
# operations blocking mid-op on busy planes/links, the wear model's
# read-retry passes, real GC page moves and copybacks, and preemptive GC
# waiting for host I/O to go quiet before each chunk of page moves.
#
# The hook scenarios attach the reliability stack (RBER sampling, the
# ECC ladder, copy error tracking), the wear read-retry model on an
# aged device, and seeded die/channel fault injection -- together, so
# every hook branch of every datapath op runs under contention.
# ---------------------------------------------------------------------------

def _tiny_geometry():
    """Small enough that a 3 ms write-leaning mix fills it and GC runs."""
    from repro.flash import FlashGeometry

    return FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                         blocks_per_plane=12, pages_per_block=16)


#: Reliability stack for the hook scenarios: a raw bit-error rate high
#: enough on aged blocks that the ECC ladder escalates, plus transient
#: die/channel faults.
_HOOK_RELIABILITY = ReliabilityConfig(
    base_rber=1.2e-6, channel_fault_rate=0.05, die_fault_rate=0.05)


def _run_datapath_scenario(arch, duration, **overrides):
    """Build, run and summarize one datapath scenario (see below)."""
    from repro.core import build_ssd, fastforward_wear
    from repro.workloads import SyntheticWorkload

    pattern = overrides.pop("pattern", "mixed")
    read_fraction = overrides.pop("read_fraction", 0.3)
    prefill = overrides.pop("prefill", False)
    wear = overrides.pop("wear", None)
    faults = overrides.pop("faults", None)
    if overrides.pop("tiny", False):
        overrides.update(geometry=_tiny_geometry(), prefill_fraction=0.92)
    ssd = build_ssd(arch, **overrides)
    if prefill:
        ssd.prefill()
    if wear is not None:
        fastforward_wear(ssd, wear)
    injector = None
    if faults is not None:
        injector = FaultInjector(ssd.sim, channel_fault_rate=faults,
                                 die_fault_rate=faults, seed=11)
        for controller in ssd.controllers:
            controller.fault_injector = injector
    workload = SyntheticWorkload(pattern=pattern, io_size=4096,
                                 read_fraction=read_fraction)
    ssd.run(workload, duration_us=duration)
    ftl = ssd.ftl
    summary = {
        "now": ssd.sim.now,
        "requests": ftl.requests_completed,
        "read_latency": ftl.read_latency.summary(),
        "write_latency": ftl.write_latency.summary(),
        "io_latency": ftl.io_latency.summary(),
        "breakdown": ftl.mean_io_breakdown().as_dict(),
        "copybacks": ssd.datapath.copybacks_completed,
        "gc_episodes": ssd.gc.stats.episodes,
        "gc_pages_moved": ssd.gc.stats.pages_moved,
        "pages_read": sum(c.pages_read for c in ssd.controllers),
        "pages_programmed": sum(c.pages_programmed
                                for c in ssd.controllers),
        "read_retries": ssd.datapath.read_retries_performed,
        "unchecked_copies": getattr(ssd.datapath, "unchecked_copies", 0),
        "flush_stalls": ftl.flush_stalls,
        "alloc_stalls": ssd.gc.stats.alloc_stalls,
    }
    if ssd.reliability is not None:
        summary["reliability"] = ssd.reliability.stats_dict()
    if injector is not None:
        summary["faults"] = {name: getattr(injector, name) for name in (
            "channel_faults", "die_faults", "retries", "exhausted",
            "retry_delay_total")}
    return summary, ssd


def _datapath_fingerprint(arch, duration, **overrides):
    """``(fingerprint, end-state summary, device)`` of one scenario."""
    summary = {}
    device = []

    def run():
        end_state, ssd = _run_datapath_scenario(arch, duration, **overrides)
        summary.update(end_state)
        device.append(ssd)
        return summary

    return fingerprint(run), summary, device[0]


#: (scenario id, arch, duration_us, overrides).  The ``tiny`` scenarios
#: use a near-full small device so GC actually runs: page moves and
#: copybacks then contend with host I/O mid-operation.
_DATAPATH_SCENARIOS = [
    ("midop_blocking", "baseline", 2500.0, {"read_fraction": 0.2}),
    ("midop_blocking_dssd", "dssd_f", 2000.0, {"read_fraction": 0.3}),
    ("ecc_retry_ladder", "baseline", 2000.0,
     {"read_fraction": 0.7, "read_retry": True}),
    ("gc_page_moves", "baseline", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    ("gc_copybacks_fnoc", "dssd_f", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    ("gc_copybacks_dedicated_bus", "dssd_b", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True}),
    # The raised hard floor makes preemptive GC move pages *under* live
    # host I/O (its quiet-wait would otherwise stall all run long), so
    # page moves get preempt-polled and interleaved with host ops.
    ("preemptive_gc", "bw", 3000.0,
     {"read_fraction": 0.2, "gc_policy": "preemptive", "tiny": True,
      "prefill": True, "gc_hard_floor_fraction": 0.25}),
    # At the default hard floor the same device parks every GC worker
    # in the preemptive quiet-wait for the whole run, polling host I/O.
    ("preemptive_gc_quiet_wait", "bw", 3000.0,
     {"read_fraction": 0.2, "gc_policy": "preemptive", "tiny": True,
      "prefill": True}),
    # No GC reserve and dense victims: host flushes drain the free
    # pools, so GC page moves stall polling for a destination page.
    ("gc_destination_stall", "baseline", 3000.0,
     {"read_fraction": 0.2, "tiny": True, "prefill": True,
      "gc_reserve_blocks": 0, "prefill_valid_ratio": 0.85}),
    # Hook scenarios: reliability + wear + faults on an aged, near-full
    # device, so host reads, flushes, GC page moves and copybacks all
    # take their hook branches while contending.
    ("reliability_wear_faults", "dssd_f", 3000.0,
     {"read_fraction": 0.4, "tiny": True, "prefill": True,
      "read_retry": True, "reliability": _HOOK_RELIABILITY, "wear": 0.85}),
    ("reliability_wear_faults_baseline", "baseline", 3000.0,
     {"read_fraction": 0.4, "tiny": True, "prefill": True,
      "read_retry": True, "reliability": _HOOK_RELIABILITY, "wear": 0.85}),
    ("unchecked_copyback_reliability", "dssd_b", 3000.0,
     {"read_fraction": 0.3, "tiny": True, "prefill": True,
      "copyback_ecc": False, "reliability": _HOOK_RELIABILITY,
      "wear": 0.85}),
    # Without the reliability stack the wear model owns the read-retry
    # loop; faults are injected straight into the controllers.
    ("wear_retry_faults", "baseline", 2500.0,
     {"read_fraction": 0.6, "prefill": True, "read_retry": True,
      "wear": 0.9, "faults": 0.05}),
]


@pytest.mark.parametrize(
    "name,arch,duration,overrides", _DATAPATH_SCENARIOS,
    ids=[s[0] for s in _DATAPATH_SCENARIOS])
def test_datapath_golden_under_contention(name, arch, duration, overrides):
    observed, _, _ = _datapath_fingerprint(arch, duration,
                                           **dict(overrides))
    assert_golden(name, observed)


#: Recorded :func:`_meter_digest` per datapath scenario.
METER_GOLDEN = {
    "midop_blocking": "20f79f9ed851f7c8",
    "midop_blocking_dssd": "97ef39bbd276618d",
    "ecc_retry_ladder": "4c95b4aaa5feec85",
    "gc_page_moves": "cf3cd141924898d3",
    "gc_copybacks_fnoc": "b4eefbe2a3fb6adc",
    "gc_copybacks_dedicated_bus": "72001f19e7c16c06",
    "preemptive_gc": "64fd07f75a4309eb",
    "preemptive_gc_quiet_wait": "f840bdbf4f165da8",
    "gc_destination_stall": "189d8b64913f10f2",
    "reliability_wear_faults": "e0b426c4339b0203",
    "reliability_wear_faults_baseline": "9972f3ee0dfae2d4",
    "unchecked_copyback_reliability": "64013f79d4da0c3f",
    "wear_retry_faults": "aeb1e56b4254fdd1",
}


def _meter_digest(ssd):
    """Hash of the resource meters the datapath ops settle.

    The dispatch fingerprint covers timing and the end-state summary;
    this covers where the time was booked: the mean GC move breakdown,
    total plane busy time, every ECC engine's busy time and pages
    checked, and every controller's page/block counters.
    """
    datapath = ssd.datapath
    engines = getattr(datapath, "ecc_engines", [datapath.ecc])
    meters = (
        ssd.gc.stats.mean_move_breakdown().as_dict(),
        sum(plane.busy_time for plane in ssd.backend.planes),
        [(engine.busy_time, engine.pages_checked) for engine in engines],
        [(c.pages_read, c.pages_programmed, c.blocks_erased)
         for c in ssd.controllers],
    )
    return hashlib.sha256(repr(meters).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name,arch,duration,overrides", _DATAPATH_SCENARIOS,
    ids=[s[0] for s in _DATAPATH_SCENARIOS])
def test_datapath_meters_under_contention(name, arch, duration, overrides):
    _, _, ssd = _datapath_fingerprint(arch, duration, **dict(overrides))
    observed = _meter_digest(ssd)
    assert observed == METER_GOLDEN.get(name), \
        f"{name}: meter digest {observed} != golden {METER_GOLDEN.get(name)}"


@pytest.mark.xfail(strict=True, raises=FlashError,
                   reason="known host-read vs GC-erase race: a read that "
                   "looked up its page before GC erased the block reads "
                   "an unwritten page")
def test_wear_retry_faults_on_a_near_full_device():
    """``wear_retry_faults`` on the tiny near-full device, so GC runs
    beside the reads.  It must pass once the race is fixed; strict, so
    that fix has to drop this mark."""
    arch, overrides = next((arch, overrides)
                           for name, arch, _, overrides in _DATAPATH_SCENARIOS
                           if name == "wear_retry_faults")
    _run_datapath_scenario(arch, 3000.0, **dict(overrides, tiny=True, seed=1))


def test_flat_scenarios_exercise_their_features(monkeypatch):
    """The scenarios must actually hit GC/retry/copyback machinery and
    tick every 10 us wait loop, or the golden fingerprints above pin
    nothing."""
    from repro.core import build_ssd
    from repro.ftl import GarbageCollector
    from repro.workloads import SyntheticWorkload

    ssd = build_ssd("baseline", read_retry=True)
    workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                 read_fraction=0.7)
    ssd.run(workload, duration_us=2000.0)
    assert ssd.datapath.wear_model is not None

    # [start, end] of every preemptive quiet-wait; end stays None while
    # the wait is parked.  A wait that polled at least once returns
    # later than it started, or never.
    quiet_waits = []
    original_wait = GarbageCollector._wait_for_io_quiet

    def timed_wait(gc):
        span = [gc.sim.now, None]
        quiet_waits.append(span)
        yield from original_wait(gc)
        span[1] = gc.sim.now

    monkeypatch.setattr(GarbageCollector, "_wait_for_io_quiet", timed_wait)

    for name, arch, duration, overrides in _DATAPATH_SCENARIOS:
        if not (overrides.get("tiny") or "faults" in overrides):
            continue
        del quiet_waits[:]
        _, fp, device = _datapath_fingerprint(arch, duration,
                                              **dict(overrides))
        if overrides.get("tiny"):
            # The near-full device starves host flushes at least once.
            assert device.ftl.flush_stalls > 0, name
        if name == "preemptive_gc_quiet_wait":
            assert any(end is None or end > start
                       for start, end in quiet_waits), name
        elif overrides.get("tiny"):
            assert fp["gc_pages_moved"] > 0, name
        if name == "gc_destination_stall":
            assert device.gc.stats.alloc_stalls > 0, name
        if overrides.get("tiny") and arch.startswith("dssd"):
            assert fp["copybacks"] > 0, name
        if "reliability" in overrides:
            stats = fp["reliability"]
            assert stats["ladder_retries"] > 0, name
            assert stats["channel_faults"] > 0, name
            assert stats["die_faults"] > 0, name
            assert stats["checked_copies"] + stats["unchecked_copies"] > 0
        if "faults" in overrides:
            assert fp["read_retries"] > 0, name
            assert fp["faults"]["channel_faults"] > 0, name
            assert fp["faults"]["die_faults"] > 0, name
        if overrides.get("copyback_ecc") is False:
            assert fp["unchecked_copies"] > 0, name


def test_superblock_migration_waits_for_claimed_block():
    """A first-failure FTL migration that meets a sub-block a GC worker
    has claimed polls on the collector's 10 us grid until the worker
    lets it go, then rescues the whole superblock."""
    from repro.core import ArchPreset, build_ssd, sim_geometry
    from repro.ftl.blocks import BAD, COLLECTING, FULL
    from repro.superblock import LiveDynamicSuperblocks

    geometry = sim_geometry(channels=4, ways=2, planes=2,
                            blocks_per_plane=8, pages_per_block=8)

    def run():
        ssd = build_ssd(ArchPreset.DSSD_F, geometry=geometry,
                        queue_depth=8)
        live = LiveDynamicSuperblocks(ssd)
        ssd.prefill()
        infos = ssd.blocks.blocks

        def info(superblock, channel):
            return infos[geometry.block_index(
                live.subblock_addr(superblock, channel))]

        superblock = next(
            sb for sb in range(live.manager.visible)
            if all(info(sb, c).state == FULL
                   for c in range(geometry.channels)))
        claimed = info(superblock, 0)
        claimed.state = COLLECTING
        trace = []

        def gc_worker():
            yield ssd.sim.timeout(120.0)
            trace.append(("unclaim", ssd.sim.now))
            claimed.state = FULL

        gc_move = ssd.datapath.gc_move

        def traced_move(src, dst, **kwargs):
            trace.append(("move", ssd.sim.now))
            return (yield from gc_move(src, dst, **kwargs))

        ssd.datapath.gc_move = traced_move
        ssd.sim.process(gc_worker())
        proc = live.inject_uncorrectable(superblock, channel=0)
        ssd.sim.run()
        assert proc.triggered and live.ftl_migrations == 1
        # The wait saw the claim at 0, 10, ..., 110 us; the poll at
        # 120 us runs just after the unclaim and starts the first
        # burst of page moves.
        assert trace[:2] == [("unclaim", 120.0), ("move", 120.0)]
        assert all(info(superblock, c).state == BAD
                   and info(superblock, c).mask == 0
                   for c in range(geometry.channels))
        ssd.mapping.check_consistency()
        return (trace, ssd.sim.now, live.stats(), ssd.ftl.flush_stalls,
                ssd.gc.stats.alloc_stalls)

    assert_golden("superblock_migration_claimed_wait", fingerprint(run))


# ---------------------------------------------------------------------------
# End-to-end: a full SSD point.
# ---------------------------------------------------------------------------

def test_end_to_end_ssd_point_matches_golden():
    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    def run():
        ssd = build_ssd("dssd_f")
        workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                     read_fraction=0.5)
        ssd.run(workload, duration_us=3000.0)
        ftl = ssd.ftl
        return {
            "now": ssd.sim.now,
            "requests": ftl.requests_completed,
            "read_latency": ftl.read_latency.summary(),
            "write_latency": ftl.write_latency.summary(),
            "fnoc_packets": ssd.fnoc.packets_sent,
            "fnoc_bytes": ssd.fnoc.bytes_sent,
            "copybacks": ssd.datapath.copybacks_completed,
            "flush_stalls": ftl.flush_stalls,
            "alloc_stalls": ssd.gc.stats.alloc_stalls,
        }

    assert_golden("ssd_point", fingerprint(run))
