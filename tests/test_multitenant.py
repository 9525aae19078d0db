"""Integration tests for the multi-tenant run path (run_tenants).

Covers the driver models (closed vs open loop), QoS enforcement
(token-bucket rate limits, drop vs backpressure admission), the
isolation property fig17 reports, warmup-window stat resets, and
determinism of the whole path.
"""

import pytest

from repro.core import build_ssd, sim_geometry
from repro.errors import ConfigError
from repro.host import QosPolicy, TenantSpec
from repro.workloads import SyntheticWorkload, TraceRecord, TraceWorkload


def small_ssd(**overrides):
    overrides.setdefault(
        "geometry", sim_geometry(channels=4, ways=2, planes=4,
                                 blocks_per_plane=16),
    )
    overrides.setdefault("prefill_fraction", 0.5)
    return build_ssd("baseline", **overrides)


def writer(io_size=32768):
    return SyntheticWorkload(pattern="rand_write", io_size=io_size)


# ---------------------------------------------------------------- drivers


def test_open_and_closed_loop_agree_at_saturation():
    """Far above capacity, arrival model stops mattering: an open-loop
    stream and a closed-loop stream extract the same throughput."""
    closed = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(), driver="closed",
                    queue_depth=32)],
        duration_us=10_000.0,
    )
    open_loop = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(), driver="poisson",
                    rate_iops=1_000_000.0,   # ~4x device capability
                    qos=QosPolicy(sq_depth=64))],
        duration_us=10_000.0,
    )
    closed_bw = closed.tenant("t").bandwidth
    open_bw = open_loop.tenant("t").bandwidth
    assert closed_bw > 0
    assert open_bw == pytest.approx(closed_bw, rel=0.15)


def test_open_loop_latency_includes_queueing():
    """Below saturation the open-loop stream is fine; far above it the
    arrival-to-completion latency blows up -- the tail a closed-loop
    driver cannot observe."""
    calm = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=10_000.0)],
        duration_us=10_000.0,
    ).tenant("t")
    slammed = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=2_000_000.0)],
        duration_us=10_000.0,
    ).tenant("t")
    assert calm.latency.p99 < slammed.latency.p99 / 10


def test_trace_replay_paces_on_timestamps():
    records = [
        TraceRecord(op="write", lpn=0, n_pages=1, timestamp=0.0),
        TraceRecord(op="write", lpn=8, n_pages=1, timestamp=4_000.0),
        TraceRecord(op="write", lpn=16, n_pages=1, timestamp=9_999_000.0),
    ]
    result = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=TraceWorkload(records),
                    driver="trace")],
        duration_us=8_000.0,
    )
    tenant = result.tenant("t")
    # The third record's timestamp is beyond the horizon: never arrives.
    assert tenant.arrivals == 2
    assert tenant.completed == 2
    # Replay idles between records, so per-request latency stays small
    # even though the records span most of the window.
    assert tenant.latency.max < 1_000.0


def test_trace_driver_requires_timestamps():
    with pytest.raises(ConfigError, match="peek_timestamp"):
        small_ssd().run_tenants(
            [TenantSpec(name="t", workload=writer(), driver="trace")],
            duration_us=1_000.0,
        )


# ---------------------------------------------------------------- QoS


def test_token_bucket_rate_limit_enforced():
    """Offered 100k IOPS through a 20k IOPS bucket -> ~20k dispatched."""
    result = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=100_000.0,
                    qos=QosPolicy(rate_iops=20_000.0, burst_ops=4.0))],
        duration_us=20_000.0,
    )
    tenant = result.tenant("t")
    limit = 20_000.0 * 20_000.0 / 1e6   # rate * window
    assert tenant.completed <= limit + 8
    assert tenant.completed >= 0.8 * limit


def test_drop_admission_counts_rejections():
    result = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=500_000.0,
                    qos=QosPolicy(rate_iops=5_000.0, sq_depth=4,
                                  drop_on_full=True))],
        duration_us=5_000.0,
    )
    tenant = result.tenant("t")
    assert tenant.dropped > 0
    assert tenant.arrivals == tenant.admitted + tenant.dropped
    assert 0.0 < tenant.drop_fraction < 1.0


def test_priority_qos_isolates_victim_p99():
    """The fig17 acceptance property in miniature, RR and WRR.

    Uses the full fig17 geometry: on a tiny device the aggressor
    saturates the DRAM write buffer, whose FIFO backpressure defeats
    any arbitration policy -- isolation needs flush headroom.
    """

    def fig17_ssd(arbiter):
        return build_ssd("baseline", geometry=sim_geometry(),
                         arbiter=arbiter, prefill_fraction=0.5)

    def tenants(with_aggressor):
        specs = [TenantSpec(
            name="victim", workload=writer(16384), driver="poisson",
            rate_iops=15_000.0,
            qos=QosPolicy(rate_iops=20_000.0, weight=4, priority=0),
            seed=7,
        )]
        if with_aggressor:
            specs.append(TenantSpec(
                name="aggressor", workload=writer(32768), driver="closed",
                queue_depth=24, qos=QosPolicy(weight=1, priority=4),
                seed=11,
            ))
        return specs

    # Solo is arbiter-independent (single queue): run it once.
    solo = fig17_ssd("rr").run_tenants(
        tenants(False), duration_us=12_000.0, warmup_us=4_000.0)
    solo_p99 = solo.tenant("victim").latency.p99
    for arbiter in ("rr", "wrr"):
        shared = fig17_ssd(arbiter).run_tenants(
            tenants(True), duration_us=12_000.0, warmup_us=4_000.0)
        shared_p99 = shared.tenant("victim").latency.p99
        assert shared_p99 <= 2.0 * solo_p99, arbiter
        # The aggressor is not starved: it moves the bulk of the bytes.
        assert (shared.tenant("aggressor").bandwidth
                > 3 * shared.tenant("victim").bandwidth), arbiter


# ---------------------------------------------------------------- plumbing


def test_warmup_resets_tenant_stats():
    full = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=50_000.0)],
        duration_us=10_000.0,
    ).tenant("t")
    windowed = small_ssd().run_tenants(
        [TenantSpec(name="t", workload=writer(4096), driver="poisson",
                    rate_iops=50_000.0)],
        duration_us=10_000.0, warmup_us=5_000.0,
    ).tenant("t")
    assert 0 < windowed.completed < full.completed
    assert windowed.duration_us == pytest.approx(5_000.0)


def test_run_tenants_is_deterministic():
    def once():
        result = small_ssd().run_tenants(
            [TenantSpec(name="a", workload=writer(16384), driver="poisson",
                        rate_iops=30_000.0, seed=3),
             TenantSpec(name="b", workload=writer(32768), driver="closed",
                        queue_depth=8, seed=5)],
            duration_us=8_000.0,
        )
        return [t.latency.samples() for t in result.tenants]

    assert once() == once()


def test_run_tenants_guards():
    ssd = small_ssd()
    spec = TenantSpec(name="t", workload=writer())
    with pytest.raises(ConfigError):
        ssd.run_tenants([spec], duration_us=0.0)
    with pytest.raises(ConfigError):
        ssd.run_tenants([spec], duration_us=100.0, warmup_us=100.0)
    with pytest.raises(ConfigError):
        ssd.run_tenants([], duration_us=100.0)
    with pytest.raises(ConfigError):
        ssd.run_tenants(
            [spec, TenantSpec(name="t", workload=writer())],
            duration_us=100.0,
        )
    ssd.run_tenants([spec], duration_us=200.0)
    with pytest.raises(ConfigError):
        ssd.run_tenants([spec], duration_us=200.0)   # single use


def test_run_tenants_refuses_a_deadline_behind_the_clock():
    ssd = small_ssd()
    ssd.run(writer(), max_requests=20)
    now, seq = ssd.sim.now, ssd.sim._seq
    spec = TenantSpec(name="t", workload=writer())
    with pytest.raises(ConfigError, match="before the device clock"):
        ssd.run_tenants([spec], duration_us=now / 2)
    assert (ssd.sim.now, ssd.sim._seq, ssd.sim.peek()) == (now, seq, None)
    assert ssd.frontend is None


def test_run_tenants_warmup_is_a_delay_from_the_clock():
    ssd = small_ssd()
    ssd.run(writer(), max_requests=20)
    now = ssd.sim.now
    spec = TenantSpec(name="t", workload=writer())
    with pytest.raises(ConfigError, match="warmup_us"):
        ssd.run_tenants([spec], duration_us=now + 400.0,
                        warmup_us=now + 100.0)
    assert ssd.frontend is None
    result = ssd.run_tenants([spec], duration_us=now + 400.0,
                             warmup_us=100.0)
    assert result.device.duration_us == pytest.approx(300.0)


def test_arbiter_config_knobs_validated():
    with pytest.raises(ConfigError):
        build_ssd("baseline", arbiter="lottery")
    with pytest.raises(ConfigError):
        build_ssd("baseline", arb_burst=0)


def test_device_counters_match_tenant_totals():
    result = small_ssd().run_tenants(
        [TenantSpec(name="a", workload=writer(4096), driver="poisson",
                    rate_iops=20_000.0),
         TenantSpec(name="b", workload=writer(4096), driver="closed",
                    queue_depth=4)],
        duration_us=5_000.0,
    )
    total = sum(t.completed for t in result.tenants)
    assert result.device.requests_completed == total
