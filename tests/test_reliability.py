"""Tests for the reliability subsystem and interrupt/leak regressions.

Covers the resource-leak fixes (interrupt-safe holds on Resource and
ECC lanes), the Timeout construction-trigger fix, ECC
utilization accounting under preemption, kernel interrupt edge cases,
and the reliability stack itself (RBER model, read-retry ladder,
bad-block retirement, fault injection, end-to-end error propagation).
"""

import random

import pytest

from repro.controller import EccEngine
from repro.errors import ConfigError
from repro.flash import FlashGeometry, PhysAddr
from repro.ftl.blocks import BlockManager, SPARE
from repro.reliability import (
    BadBlockManager,
    EccLadder,
    FaultInjector,
    RberModel,
    ReliabilityConfig,
    pe_fraction_at_rber,
    poisson,
)
from repro.sim import Interrupt, Resource, SimulationError, Simulator


# ---------------------------------------------------------------------------
# Timeout construction semantics


class TestTimeoutSemantics:
    def test_not_triggered_at_construction(self):
        sim = Simulator()
        timeout = sim.timeout(5.0)
        assert not timeout.triggered

    def test_triggered_after_firing(self):
        sim = Simulator()
        timeout = sim.timeout(5.0, value="done")
        sim.run()
        assert timeout.triggered
        assert timeout.ok
        assert timeout.value == "done"

    def test_manual_trigger_rejected(self):
        sim = Simulator()
        timeout = sim.timeout(1.0)
        with pytest.raises(SimulationError):
            timeout.trigger()
        with pytest.raises(SimulationError):
            timeout.fail(RuntimeError("no"))

    def test_zero_delay_still_waits_for_dispatch(self):
        sim = Simulator()
        timeout = sim.timeout(0.0)
        assert not timeout.triggered
        sim.run()
        assert timeout.triggered

    def test_yield_fresh_timeout_waits_full_delay(self):
        sim = Simulator()
        seen = []

        def proc():
            yield sim.timeout(3.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [pytest.approx(3.0)]


# ---------------------------------------------------------------------------
# Interrupt-safe resource holds (the preemptive-GC leak regressions)


class TestInterruptResourceSafety:
    def test_ecc_lane_released_on_interrupt_mid_decode(self):
        """Regression: an interrupted ECC check must not leak its lane.

        Pre-fix, interrupting the holder mid-``timeout`` skipped the
        release and every later check deadlocked on the lost lane.
        """
        sim = Simulator()
        engine = EccEngine(sim, throughput=1000.0, fixed_latency_us=1.0,
                           lanes=1)
        finished = []

        def victim():
            yield from engine.check(4096)

        def observer():
            yield from engine.check(4096)
            finished.append(sim.now)

        holder = sim.process(victim())
        sim.schedule(2.0, holder.interrupt)
        sim.process(observer())
        sim.run()
        assert finished, "ECC lane leaked: follow-up check never ran"

    def test_resource_cancel_of_queued_request(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.acquire()
        second = resource.acquire()
        assert first.triggered and not second.triggered
        resource.cancel(second)
        assert resource.queue_length == 0
        third = resource.acquire()
        resource.cancel(first)  # releases; must skip the cancelled grant
        sim.run()
        assert third.triggered

    def test_resource_cancel_of_triggered_grant_releases(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        grant = resource.acquire()
        assert grant.triggered
        resource.cancel(grant)
        assert resource.in_use == 0
        again = resource.acquire()
        assert again.triggered

    def test_multi_unit_grant_returned_on_interrupt(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)

        def holder():
            grant = pool.acquire(2)
            try:
                yield grant
                yield sim.timeout(100.0)
            finally:
                pool.cancel(grant)

        process = sim.process(holder())
        sim.schedule(5.0, process.interrupt)
        sim.run()
        assert pool.in_use == 0

    def test_cancel_of_queued_head_unblocks_smaller(self):
        sim = Simulator()
        pool = Resource(sim, capacity=4)
        hold = pool.acquire(3)
        big = pool.acquire(4)       # queued, head of line
        small = pool.acquire(1)     # queued behind the big one
        assert not big.triggered and not small.triggered
        pool.cancel(big)
        assert small.triggered      # head removal drains the queue
        pool.cancel(hold)
        pool.cancel(small)
        assert pool.in_use == 0

    def test_interrupt_while_waiting_in_queue_leaves_no_ghost_grant(self):
        sim = Simulator()
        engine = EccEngine(sim, throughput=1000.0, fixed_latency_us=1.0,
                           lanes=1)
        order = []

        def long_holder():
            yield from engine.check(65536)
            order.append("holder")

        def queued():
            yield from engine.check(4096)
            order.append("queued")  # pragma: no cover - interrupted

        def late():
            yield from engine.check(4096)
            order.append("late")

        sim.process(long_holder())
        waiting = sim.process(queued())
        sim.schedule(1.0, waiting.interrupt)  # still queued at t=1
        sim.schedule(2.0, lambda: sim.process(late()))
        sim.run()
        assert order == ["holder", "late"]


class TestKernelInterruptEdges:
    def test_interrupt_before_first_resume(self):
        sim = Simulator()
        outcomes = []

        def proc():
            try:
                yield sim.timeout(10.0)
                outcomes.append("finished")
            except Interrupt:
                outcomes.append("interrupted")

        process = sim.process(proc())
        process.interrupt()
        sim.run()
        assert outcomes == ["interrupted"]
        assert process.triggered

    def test_interrupt_during_all_of(self):
        sim = Simulator()
        outcomes = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(10.0), sim.timeout(20.0)])
                outcomes.append("finished")
            except Interrupt:
                outcomes.append("interrupted")

        process = sim.process(proc())
        sim.schedule(5.0, process.interrupt)
        sim.run()
        assert outcomes == ["interrupted"]
        # The timeouts fire afterwards without resuming the dead process.
        assert sim.now == pytest.approx(20.0)

    def test_interrupt_during_any_of(self):
        sim = Simulator()
        outcomes = []

        def proc():
            try:
                yield sim.any_of([sim.timeout(10.0), sim.timeout(20.0)])
                outcomes.append("finished")
            except Interrupt:
                outcomes.append("interrupted")

        process = sim.process(proc())
        sim.schedule(5.0, process.interrupt)
        sim.run()
        assert outcomes == ["interrupted"]

    def test_interrupt_propagates_through_yield_from(self):
        sim = Simulator()
        cleaned = []

        def inner():
            try:
                yield sim.timeout(50.0)
            finally:
                cleaned.append("inner")

        def outer():
            try:
                yield from inner()
            finally:
                cleaned.append("outer")

        process = sim.process(outer())
        sim.schedule(1.0, process.interrupt)
        sim.run()
        assert cleaned == ["inner", "outer"]


# ---------------------------------------------------------------------------
# ECC utilization accounting under preemption


class TestEccAccounting:
    def test_partial_decode_counts_busy_time(self):
        sim = Simulator()
        engine = EccEngine(sim, throughput=1000.0, fixed_latency_us=1.0,
                           lanes=1)

        def victim():
            yield from engine.check(4096)  # 5.096 us decode

        process = sim.process(victim())
        sim.schedule(2.0, process.interrupt)
        sim.run()
        assert engine.busy_time == pytest.approx(2.0)
        assert engine.pages_checked == 1

    def test_interrupt_while_queued_counts_nothing(self):
        sim = Simulator()
        engine = EccEngine(sim, throughput=1000.0, fixed_latency_us=1.0,
                           lanes=1)

        def holder():
            yield from engine.check(65536)  # 66.536 us

        def queued():
            yield from engine.check(4096)

        sim.process(holder())
        waiting = sim.process(queued())
        sim.schedule(1.0, waiting.interrupt)
        sim.run()
        assert engine.pages_checked == 1  # only the holder's pass
        assert engine.busy_time == pytest.approx(66.536)

    def test_uninterrupted_accounting_unchanged(self):
        sim = Simulator()
        engine = EccEngine(sim, throughput=1000.0, fixed_latency_us=0.5,
                           lanes=1)

        def proc():
            yield from engine.check(4096)

        sim.process(proc())
        sim.run()
        assert engine.pages_checked == 1
        assert engine.busy_time == pytest.approx(0.5 + 4096 / 1000.0)


# ---------------------------------------------------------------------------
# Reliability building blocks


class TestRberModel:
    def test_poisson_deterministic_and_zero_rate(self):
        draws_a = [poisson(random.Random(7), 2.5) for _ in range(1)]
        draws_b = [poisson(random.Random(7), 2.5) for _ in range(1)]
        assert draws_a == draws_b
        assert poisson(random.Random(1), 0.0) == 0
        assert poisson(random.Random(1), -1.0) == 0

    def test_poisson_mean_tracks_lambda(self):
        rng = random.Random(3)
        lam = 4.0
        n = 4000
        mean = sum(poisson(rng, lam) for _ in range(n)) / n
        assert mean == pytest.approx(lam, rel=0.1)

    def test_poisson_large_lambda_gaussian_branch(self):
        rng = random.Random(5)
        value = poisson(rng, 1000.0)
        assert 800 <= value <= 1200

    def test_pe_fraction_at_rber(self):
        assert pe_fraction_at_rber(1e-7, 1e-7, 8.0) == 0.0
        assert pe_fraction_at_rber(1e-6, 1e-7, 8.0) == pytest.approx(
            2.302585 / 8.0, rel=1e-5)
        with pytest.raises(ConfigError):
            pe_fraction_at_rber(0.0, 1e-7, 8.0)

    def test_rber_grows_with_wear_and_age(self):
        model = RberModel(base_rber=1e-6, growth=8.0, retention_per_ms=0.1,
                          pe_mean=100, pe_sigma=0.0, seed=1)
        fresh = model.rber(0, 0, age_us=0.0)
        worn = model.rber(0, 50, age_us=0.0)
        aged = model.rber(0, 50, age_us=10_000.0)
        assert fresh == pytest.approx(1e-6)
        assert worn > fresh
        assert aged > worn

    def test_wear_death_matches_limit(self):
        model = RberModel(pe_mean=10, pe_sigma=0.0, seed=1)
        limit = model.limit_for(3)
        assert not model.is_dead(3, limit - 1)
        assert model.is_dead(3, limit)


class TestEccLadder:
    def test_step_selection(self):
        ladder = EccLadder(correct_bits=(40, 60, 72))
        assert ladder.steps == 3
        assert ladder.next_step(0) == 0
        assert ladder.next_step(45) == 1
        assert ladder.next_step(72) == 2
        assert ladder.next_step(73) is None
        assert ladder.next_step(45, step=2) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            EccLadder(correct_bits=(40, 30))
        with pytest.raises(ConfigError):
            EccLadder(correct_bits=(40,), latency_scales=(1.0, 2.0))
        with pytest.raises(ConfigError):
            EccLadder(latency_scales=(1.0, -1.0, 2.0))


class TestFaultInjector:
    def test_deterministic_rolls(self):
        sim = Simulator()
        a = FaultInjector(sim, channel_fault_rate=0.3, seed=9)
        b = FaultInjector(sim, channel_fault_rate=0.3, seed=9)
        rolls_a = [a.channel_fault() for _ in range(50)]
        rolls_b = [b.channel_fault() for _ in range(50)]
        assert rolls_a == rolls_b
        assert a.channel_faults == sum(rolls_a)

    def test_disabled_rates_never_fire(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        assert not injector.enabled
        assert not injector.channel_fault()
        assert not injector.die_fault()

    def test_backoff_escalates_and_exhausts(self):
        sim = Simulator()
        injector = FaultInjector(sim, channel_fault_rate=0.5,
                                 timeout_us=2.0, backoff=2.0, max_retries=2)
        delays = []

        def proc():
            for attempt in (1, 2, 3):
                t0 = sim.now
                proceed = yield from injector.backoff_wait(attempt)
                delays.append((sim.now - t0, proceed))

        sim.process(proc())
        sim.run()
        assert delays[0] == (pytest.approx(2.0), True)
        assert delays[1] == (pytest.approx(4.0), True)
        assert delays[2] == (pytest.approx(0.0), False)
        assert injector.exhausted == 1
        assert injector.retries == 2

    def test_config_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            FaultInjector(sim, channel_fault_rate=1.5)
        with pytest.raises(ConfigError):
            FaultInjector(sim, backoff=0.5)


class TestReliabilityConfig:
    def test_defaults_valid(self):
        config = ReliabilityConfig()
        assert config.ladder_correct_bits == (40, 60, 72)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ReliabilityConfig(base_rber=0.0)
        with pytest.raises(ConfigError):
            ReliabilityConfig(ladder_correct_bits=(60, 40, 72))
        with pytest.raises(ConfigError):
            ReliabilityConfig(channel_fault_rate=1.0)
        with pytest.raises(ConfigError):
            ReliabilityConfig(srt_capacity=0)


# ---------------------------------------------------------------------------
# Bad-block retirement and spares


def _tiny_geometry() -> FlashGeometry:
    return FlashGeometry(channels=2, ways=1, dies=1, planes=1,
                         blocks_per_plane=8, pages_per_block=4)


class TestSpareWithdrawal:
    def test_withdraw_marks_spare_and_respects_reserve(self):
        geometry = _tiny_geometry()
        blocks = BlockManager(geometry, gc_reserve_blocks=2)
        block = blocks.withdraw_spare(0)
        assert block is not None
        assert blocks.info(block).state == SPARE
        assert blocks.spare_blocks == 1
        assert blocks.free_blocks == geometry.blocks_total - 1
        # Drain the plane to the reserve floor: no more spares.
        while blocks.withdraw_spare(0) is not None:
            pass
        assert blocks.plane_free_blocks(0) > blocks.gc_reserve_blocks

    def test_free_fraction_excludes_spares(self):
        geometry = _tiny_geometry()
        blocks = BlockManager(geometry, gc_reserve_blocks=1)
        before = blocks.free_fraction
        blocks.withdraw_spare(0)
        assert blocks.free_fraction == pytest.approx(before)


class TestBadBlockManager:
    def test_retire_remaps_then_hard_retires(self):
        geometry = _tiny_geometry()
        blocks = BlockManager(geometry, gc_reserve_blocks=1)
        manager = BadBlockManager(geometry, blocks, spares_per_channel=1,
                                  srt_capacity=4)
        assert manager.spares_provisioned == 2  # one per channel
        victim = PhysAddr(0, 0, 0, 0, 0, 0)

        verdict = manager.retire(victim, mark_bad_addr=victim)
        assert verdict == "remapped"
        assert manager.active_remaps == 1
        resolved = manager.resolve(victim._replace(page=3))
        assert resolved != victim._replace(page=3)
        assert resolved.page == 3

        # Channel 0's only spare is gone: next wear-out is terminal.
        other = PhysAddr(0, 0, 0, 0, 1, 0)
        verdict = manager.retire(other, mark_bad_addr=other)
        assert verdict == "retired"
        assert blocks.info(geometry.block_index(other)).state == "bad"

    def test_retire_chain_replaces_entry(self):
        geometry = _tiny_geometry()
        blocks = BlockManager(geometry, gc_reserve_blocks=1)
        manager = BadBlockManager(geometry, blocks, spares_per_channel=2,
                                  srt_capacity=4)
        victim = PhysAddr(1, 0, 0, 0, 0, 0)
        assert manager.retire(victim, mark_bad_addr=victim) == "remapped"
        first = manager.resolve(victim)
        assert manager.retire(victim, mark_bad_addr=victim) == "remapped"
        second = manager.resolve(victim)
        assert second != first
        assert manager.active_remaps == 1  # chain collapsed, not stacked

    def test_resolve_identity_when_unmapped(self):
        geometry = _tiny_geometry()
        blocks = BlockManager(geometry, gc_reserve_blocks=1)
        manager = BadBlockManager(geometry, blocks, spares_per_channel=0)
        addr = PhysAddr(0, 0, 0, 0, 2, 1)
        assert manager.resolve(addr) == addr
        assert manager.spares_remaining == 0


# ---------------------------------------------------------------------------
# End-to-end: error propagation, retirement, determinism


def _run_reliability_ssd(arch: str, copyback_ecc: bool, **rel_overrides):
    from repro.core import build_ssd, sim_geometry
    from repro.workloads import SyntheticWorkload

    defaults = dict(base_rber=1e-4, rber_growth=8.0, pe_mean=50.0,
                    pe_sigma=5.0, spare_blocks_per_channel=1)
    defaults.update(rel_overrides)
    rel = ReliabilityConfig(**defaults)
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=10, pages_per_block=16)
    ssd = build_ssd(arch, geometry=geometry, reliability=rel, seed=5,
                    copyback_ecc=copyback_ecc)
    workload = SyntheticWorkload(pattern="rand_write",
                                 working_set_fraction=0.5)
    result = ssd.run(workload, duration_us=25_000.0)
    return ssd, result


class TestReliabilityIntegration:
    def test_legacy_copyback_propagates_errors(self):
        ssd, result = _run_reliability_ssd("dssd", copyback_ecc=False)
        extras = result.extras
        assert extras["rel_unchecked_copies"] > 0
        assert extras["rel_copy_errors_propagated"] > 0
        assert extras["rel_survivors_ge2"] > 0
        assert extras["rel_max_generation"] >= 2

    def test_checked_copyback_scrubs_errors(self):
        for arch, checked in (("baseline", True), ("dssd", True)):
            ssd, result = _run_reliability_ssd(arch, copyback_ecc=checked)
            extras = result.extras
            assert extras["rel_survivors_ge2"] == 0
            assert extras["rel_unchecked_copies"] == 0
            assert extras["rel_errors_corrected"] > 0

    def test_wearout_triggers_remap_and_retirement(self):
        ssd, result = _run_reliability_ssd("baseline", copyback_ecc=True,
                                           pe_mean=3.0, pe_sigma=0.5)
        extras = result.extras
        assert (extras["rel_blocks_remapped"]
                + extras["rel_blocks_retired"]) > 0
        assert (ssd.gc.stats.blocks_remapped
                == extras["rel_blocks_remapped"])
        assert ssd.blocks.bad_blocks == extras["rel_blocks_retired"]

    def test_fault_injection_counts_retries(self):
        ssd, result = _run_reliability_ssd(
            "baseline", copyback_ecc=True,
            channel_fault_rate=5e-3, die_fault_rate=5e-3,
        )
        extras = result.extras
        assert extras["rel_channel_faults"] + extras["rel_die_faults"] > 0
        assert extras["rel_fault_retries"] > 0

    def test_deterministic_under_seed(self):
        _ssd_a, result_a = _run_reliability_ssd("dssd", copyback_ecc=False)
        _ssd_b, result_b = _run_reliability_ssd("dssd", copyback_ecc=False)
        rel_a = {k: v for k, v in result_a.extras.items()
                 if k.startswith("rel_")}
        rel_b = {k: v for k, v in result_b.extras.items()
                 if k.startswith("rel_")}
        assert rel_a == rel_b
        assert result_a.requests_completed == result_b.requests_completed

    def test_reads_pay_the_ladder_under_high_rber(self):
        ssd, result = _run_reliability_ssd("baseline", copyback_ecc=True,
                                           base_rber=2e-3)
        extras = result.extras
        assert extras["rel_ladder_retries"] > 0
        assert extras["rel_raid_recoveries"] > 0
        # RAID is on, so nothing is reported uncorrectable.
        assert extras["rel_uncorrectable_pages"] == 0


class TestEnduranceRberCap:
    def test_uncorrectable_rber_shortens_lifetime(self):
        from repro.superblock import run_endurance

        kwargs = dict(n_superblocks=64, channels=4, seed=2,
                      pe_mean=1000.0, pe_sigma=100.0)
        raw = run_endurance(policy="baseline", **kwargs)
        capped = run_endurance(policy="baseline",
                               uncorrectable_rber=1e-6, rber_base=1e-7,
                               rber_growth=8.0, **kwargs)
        assert capped.total_bytes < raw.total_bytes

    def test_loose_rber_budget_is_a_noop(self):
        from repro.superblock import run_endurance

        kwargs = dict(n_superblocks=64, channels=4, seed=2)
        raw = run_endurance(policy="baseline", **kwargs)
        loose = run_endurance(policy="baseline",
                              uncorrectable_rber=0.5, rber_base=1e-7,
                              rber_growth=8.0, **kwargs)
        assert loose.total_bytes == raw.total_bytes
