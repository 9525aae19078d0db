"""Fleet orchestration: placement, sharding, and tail aggregation."""

import gzip
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import fig_fleet
from repro.experiments.runner import configured
from repro.fleet import (
    ConsistentHashRing,
    DeviceSpec,
    FleetSpec,
    TenantStream,
    run_fleet,
    shard_point,
    stable_hash,
)
from repro.sim import LatencyStats


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point both caches (point results + snapshots) at a fresh dir."""
    monkeypatch.setenv("REPRO_DSSD_CACHE_DIR", str(tmp_path / "cache"))


# -- consistent hashing -------------------------------------------------------

def test_stable_hash_is_process_independent():
    # SHA-256 prefix, not the salted builtin hash(): pinned forever.
    assert stable_hash("tenant00") == 0xE644DB4E36F45451
    assert stable_hash("a") != stable_hash("b")
    assert stable_hash("a") == stable_hash("a")


def test_ring_is_order_independent_and_total():
    ring_a = ConsistentHashRing(["d0", "d1", "d2"])
    ring_b = ConsistentHashRing(["d2", "d0", "d1"])
    keys = [f"k{i}" for i in range(64)]
    assert ring_a.assignments(keys) == ring_b.assignments(keys)
    placed = ring_a.assignments(keys)
    assert sorted(sum(placed.values(), [])) == sorted(keys)
    assert set(placed) == {"d0", "d1", "d2"}


def test_ring_removal_only_moves_lost_members_keys():
    keys = [f"k{i}" for i in range(128)]
    big = ConsistentHashRing(["d0", "d1", "d2", "d3"])
    small = ConsistentHashRing(["d0", "d1", "d2"])
    moved = sum(1 for key in keys
                if big.device_for(key) != small.device_for(key)
                and big.device_for(key) != "d3")
    # Consistency: keys not on the removed device overwhelmingly stay.
    assert moved == 0


def test_ring_rejects_bad_membership():
    with pytest.raises(ConfigError):
        ConsistentHashRing([])
    with pytest.raises(ConfigError):
        ConsistentHashRing(["d0", "d0"])
    with pytest.raises(ConfigError):
        ConsistentHashRing(["d0"], vnodes=0)


# -- specs --------------------------------------------------------------------

def test_fleet_spec_validation():
    device = DeviceSpec(device_id="d0")
    tenant = TenantStream(name="t0")
    with pytest.raises(ConfigError):
        FleetSpec(devices=[], tenants=[tenant])
    with pytest.raises(ConfigError):
        FleetSpec(devices=[device, device], tenants=[tenant])
    with pytest.raises(ConfigError):
        FleetSpec(devices=[device], tenants=[tenant, tenant])
    with pytest.raises(ConfigError):
        FleetSpec(devices=[device], tenants=[tenant], duration_us=0.0)
    with pytest.raises(ConfigError):
        DeviceSpec(device_id="d1", age_pe_fraction=1.0)
    with pytest.raises(ConfigError):
        DeviceSpec(device_id="d1", geometry="nope")


def test_placement_covers_every_device_and_tenant():
    spec = fig_fleet.fleet_spec(devices=8, quick=True)
    placement = spec.placement()
    assert set(placement) == {d.device_id for d in spec.devices}
    placed = sorted(sum(placement.values(), []))
    assert placed == sorted(t.name for t in spec.tenants)


# -- shards -------------------------------------------------------------------

def test_shard_without_tenants_reports_zero_without_simulating():
    row = shard_point(device_id="idle", arch="baseline",
                      age_pe_fraction=0.5, seed=3, geometry="sim",
                      overrides={}, tenants=[], duration_us=1000.0,
                      warmup_us=0.0)
    assert row["tenant_names"] == []
    assert row["requests_completed"] == 0
    assert LatencyStats.from_state(row["io_latency"]).count == 0


def test_shard_snapshot_cache_does_not_change_results(tmp_path,
                                                      monkeypatch):
    params = dict(device_id="d0", arch="dssd", age_pe_fraction=0.6,
                  seed=5, geometry="sim",
                  overrides={"prefill_fraction": 0.5},
                  tenants=[TenantStream(name="t0").params()],
                  duration_us=800.0, warmup_us=0.0)
    cold = shard_point(**params)   # ages + writes the snapshot
    warm = shard_point(**params)   # restores the cached snapshot
    monkeypatch.setenv("REPRO_DSSD_CACHE", "0")
    uncached = shard_point(**params)  # ages again, no disk involved
    assert json.loads(json.dumps(cold)) \
        == json.loads(json.dumps(warm)) \
        == json.loads(json.dumps(uncached))


@pytest.mark.parametrize("damage", ["truncated_gzip", "bad_json",
                                    "other_schema"])
def test_unreadable_snapshot_cache_entry_is_rebuilt(monkeypatch, damage):
    """A torn or stale cache entry is a miss: rebuilt, then rewritten."""
    from repro.core import SNAPSHOT_SCHEMA, save_snapshot
    from repro.fleet.orchestrator import (_snapshot_cache_path,
                                          device_snapshot_state)

    recipe = dict(arch="dssd", age_pe_fraction=0.6, seed=5, geometry="sim",
                  overrides={"prefill_fraction": 0.5})
    path = _snapshot_cache_path(recipe)
    state = device_snapshot_state(**recipe)
    intact = path.read_bytes()
    if damage == "truncated_gzip":
        path.write_bytes(intact[:len(intact) // 2])
    elif damage == "bad_json":
        path.write_bytes(gzip.compress(b'{"schema": '))
    else:
        save_snapshot(dict(state, schema=SNAPSHOT_SCHEMA - 1), path)
    rebuilt = device_snapshot_state(**recipe)
    assert path.read_bytes() == intact
    monkeypatch.setenv("REPRO_DSSD_CACHE", "0")
    uncached = device_snapshot_state(**recipe)
    assert json.loads(json.dumps(rebuilt)) == json.loads(json.dumps(uncached))


# -- fleet runs ---------------------------------------------------------------

def _tiny_spec():
    devices = [
        DeviceSpec(device_id=f"d{i}",
                   arch=("baseline", "dssd_f")[i % 2],
                   age_pe_fraction=(0.0, 0.7)[i % 2],
                   seed=11 + i,
                   overrides={"prefill_fraction": 0.5})
        for i in range(3)
    ]
    tenants = [TenantStream(name=f"t{i}", queue_depth=2, seed=31 + i)
               for i in range(6)]
    return FleetSpec(devices=devices, tenants=tenants, duration_us=600.0)


def test_run_fleet_aggregates_exact_union_percentiles():
    with configured(jobs=1, cache=False):
        result = run_fleet(_tiny_spec())
    merged = LatencyStats("check")
    for shard in result["shards"]:
        merged.merge(LatencyStats.from_state(shard["io_latency"]))
    fleet = result["fleet"]
    assert fleet["requests_completed"] == merged.count > 0
    assert fleet["io_p99_us"] == merged.p99
    assert fleet["io_p999_us"] == merged.pct(0.999)
    assert fleet["devices"] == 3
    assert [s["device_id"] for s in result["shards"]] == ["d0", "d1", "d2"]


def test_run_fleet_deterministic_across_jobs():
    spec = _tiny_spec()
    with configured(jobs=1, cache=False):
        serial = run_fleet(spec)
    with configured(jobs=2, cache=False):
        parallel = run_fleet(spec)
    assert json.loads(json.dumps(serial)) == json.loads(json.dumps(parallel))


def test_fleet_experiment_runs_and_tabulates():
    with configured(jobs=1, cache=False):
        result = fig_fleet.run(quick=True, devices=2)
    assert "FLEET" in result["table"]
    assert result["fleet"]["devices"] == 2
    assert result["spec"]["tenants"] == 4
