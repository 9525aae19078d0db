"""Device checkpoint protocol: snapshot, restore, fast-forward.

The headline guarantee is *byte-identity*: snapshotting a quiescent
device, restoring it into a fresh process, and continuing the run must
produce exactly the traces, latency samples, and summary tables of a
device that never stopped.  The equivalence tests prove it per
architecture against an uninterrupted control run; the hypothesis
property test proves the complementary round trip --
``snapshot(restore(s)) == s`` -- across every arch preset.
"""

import gzip
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ArchPreset,
    SNAPSHOT_SCHEMA,
    build_ssd,
    config_from_state,
    config_to_state,
    fastforward_wear,
    load_snapshot,
    restore_ssd,
    save_snapshot,
    sim_geometry,
    snapshot_ssd,
)
from repro.errors import SnapshotError
from repro.host import TenantSpec
from repro.reliability import ReliabilityConfig
from repro.sim.kernel import SimulationError
from repro.workloads import SyntheticWorkload

GEOM = dict(channels=2, ways=2, planes=2, blocks_per_plane=16,
            pages_per_block=16)

PHASE_REQUESTS = 250


def _build(arch, **overrides):
    overrides.setdefault("geometry", sim_geometry(**GEOM))
    overrides.setdefault("prefill_fraction", 0.5)
    return build_ssd(arch, **overrides)


def _workload():
    return SyntheticWorkload(pattern="mixed", io_size=4096,
                             read_fraction=0.5)


def _fingerprint(ssd, result):
    """Everything byte-identity is judged on: tables, samples, clock."""
    return {
        "summary": result.summary(),
        "io_latency": result.io_latency.state_dict(),
        "extras": result.extras,
        "now": ssd.sim.now,
        "seq": ssd.sim._seq,
    }


def _equivalence(arch, **overrides):
    """Phase1 -> snapshot -> JSON -> restore -> phase2 vs uninterrupted."""
    control = _build(arch, **overrides)
    control.run(_workload(), max_requests=PHASE_REQUESTS)
    expected = _fingerprint(
        control, control.run(_workload(), max_requests=PHASE_REQUESTS))

    ssd = _build(arch, **overrides)
    ssd.run(_workload(), max_requests=PHASE_REQUESTS)
    state = json.loads(json.dumps(ssd.snapshot()))
    resumed = restore_ssd(state)
    actual = _fingerprint(
        resumed, resumed.run(_workload(), max_requests=PHASE_REQUESTS))
    assert actual == expected


def test_equivalence_baseline():
    _equivalence("baseline")


def test_equivalence_dssd():
    _equivalence("dssd")


def test_equivalence_dssd_b():
    _equivalence("dssd_b")


def test_equivalence_dssd_f():
    _equivalence("dssd_f")


def test_equivalence_with_reliability_stack():
    """SRT/RBT tables, page states, and fault RNGs all survive."""
    reliability = ReliabilityConfig(base_rber=1e-5,
                                    channel_fault_rate=0.01,
                                    die_fault_rate=0.01)
    _equivalence("dssd_f", reliability=reliability)


def test_equivalence_nondeterministic_timing():
    """The flash-latency RNG stream resumes mid-sequence."""
    _equivalence("baseline", deterministic_timing=False)


# -- property: snapshot(restore(s)) == s -------------------------------------

_ARCHS = st.sampled_from(list(ArchPreset))


@settings(deadline=None, max_examples=10,
          suppress_health_check=[HealthCheck.too_slow])
@given(arch=_ARCHS,
       requests=st.integers(0, 120),
       age=st.sampled_from([0.0, 0.4, 0.8]),
       with_reliability=st.booleans())
def test_resnapshot_identity(arch, requests, age, with_reliability):
    """A restored device re-snapshots to the byte-identical state.

    One assertion covers the whole protocol: kernel clock/seq, FTL
    mapping and block pools, per-block wear counters, superblock
    SRT/RBT tables, reliability page records, and every meter must all
    round-trip exactly, or the two snapshot dicts differ.
    """
    overrides = {}
    if with_reliability:
        overrides["reliability"] = ReliabilityConfig(
            base_rber=1e-5, channel_fault_rate=0.005, die_fault_rate=0.005)
    ssd = _build(arch, **overrides)
    ssd.prefill()
    if age:
        fastforward_wear(ssd, age)
    if requests:
        ssd.run(_workload(), max_requests=requests)
    state = json.loads(json.dumps(snapshot_ssd(ssd)))
    restored = restore_ssd(state)
    assert json.loads(json.dumps(snapshot_ssd(restored))) == state
    # Spot-check the states the fleet work leans on hardest.
    assert restored.sim.now == ssd.sim.now
    assert restored.sim._seq == ssd.sim._seq
    assert restored.mapping.state_dict() == ssd.mapping.state_dict()
    assert restored.backend.state_dict() == ssd.backend.state_dict()


def test_only_the_system_bus_keeps_a_byte_timeline():
    """Every link meters busy time; only the bus bins bytes over time."""
    ssd = _build("dssd_f", prefill_fraction=0.9)
    ssd.run(SyntheticWorkload(pattern="mixed", io_size=4096,
                              read_fraction=0.2),
            max_requests=PHASE_REQUESTS)
    assert ssd.gc.stats.pages_moved > 0
    assert any(link.busy_time.get("gc")
               for link in ssd.fnoc._channels.values())

    def binned(device):
        return [resource for resource in device.sim._resources
                if getattr(resource, "byte_bins", None)]

    assert binned(ssd) == [ssd.bus]
    restored = restore_ssd(json.loads(json.dumps(ssd.snapshot())))
    assert binned(restored) == [restored.bus]
    for cls, bins in ssd.bus.byte_bins.items():
        assert restored.bus.byte_bins[cls].width == bins.width
        assert (restored.bus.bandwidth_timeline(cls)
                == ssd.bus.bandwidth_timeline(cls))


# -- quiescence & schema guards ----------------------------------------------

def test_snapshot_refuses_pending_events():
    """A duration-bounded run can stop mid-request; snapshot must refuse."""
    ssd = _build("baseline")
    ssd.run(_workload(), duration_us=40.0)
    if ssd.sim.peek() is not None:
        with pytest.raises(SimulationError):
            ssd.snapshot()
    else:  # pragma: no cover - only if 40us happens to drain fully
        ssd.snapshot()


def test_snapshot_refuses_wear_leveling_config():
    """The wear-leveler's perpetual timer makes quiescence unreachable.

    The run must be duration-bounded: with the timer rescheduling
    itself forever, an unbounded ``sim.run()`` would never return.  All
    20 requests finish long before the deadline, so the only event left
    in the heap is the wear-level timer -- exactly what blocks the
    snapshot.
    """
    ssd = _build("baseline", wear_leveling=True)
    ssd.run(_workload(), duration_us=50_000.0, max_requests=20)
    with pytest.raises(SimulationError):
        ssd.snapshot()


def test_snapshot_refuses_frontend_sessions():
    ssd = _build("baseline")
    ssd.run_tenants(
        [TenantSpec(name="t", workload=_workload(), queue_depth=2)],
        duration_us=300.0)
    with pytest.raises(SnapshotError):
        ssd.snapshot()


def test_restore_rejects_unknown_schema():
    ssd = _build("baseline")
    ssd.prefill()
    state = snapshot_ssd(ssd)
    state["schema"] = SNAPSHOT_SCHEMA + 1
    with pytest.raises(SnapshotError):
        restore_ssd(state)


# -- persistence & config round trip -----------------------------------------

@pytest.mark.parametrize("name", ["snap.json", "snap.json.gz"])
def test_save_load_roundtrip(tmp_path, name):
    ssd = _build("dssd")
    ssd.run(_workload(), max_requests=60)
    state = snapshot_ssd(ssd)
    path = save_snapshot(state, tmp_path / name)
    assert load_snapshot(path) == json.loads(json.dumps(state))


def test_interrupted_save_keeps_the_previous_snapshot(tmp_path,
                                                     monkeypatch):
    """A writer killed mid-save leaves the old file whole and no temp."""
    ssd = _build("baseline")
    ssd.prefill()
    state = snapshot_ssd(ssd)
    path = save_snapshot(state, tmp_path / "snap.json.gz")
    intact = path.read_bytes()

    def killed(self, data):
        raise KeyboardInterrupt

    monkeypatch.setattr(gzip.GzipFile, "write", killed)
    with pytest.raises(KeyboardInterrupt):
        save_snapshot(state, path)
    assert path.read_bytes() == intact
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json.gz"]


def test_gzip_snapshot_is_content_addressable(tmp_path):
    """Identical states write identical bytes (mtime pinned to zero)."""
    ssd = _build("baseline")
    ssd.prefill()
    state = snapshot_ssd(ssd)
    a = save_snapshot(state, tmp_path / "a.json.gz").read_bytes()
    b = save_snapshot(state, tmp_path / "b.json.gz").read_bytes()
    assert a == b


def test_config_roundtrip_all_presets():
    for arch in ArchPreset:
        config = _build(arch).config
        restored = config_from_state(
            json.loads(json.dumps(config_to_state(config))))
        assert restored == config


def test_config_roundtrip_reliability():
    config = _build(
        "dssd_f",
        reliability=ReliabilityConfig(base_rber=1e-5),
    ).config
    restored = config_from_state(
        json.loads(json.dumps(config_to_state(config))))
    assert restored == config


# -- fast-forward aging --------------------------------------------------------

def test_fastforward_wear_uniform_mean():
    ssd = _build("baseline")
    applied = fastforward_wear(ssd, 0.5, limit_mean=1000.0)
    geometry = ssd.config.geometry
    blocks = geometry.planes_total * geometry.blocks_per_plane
    assert applied == blocks * 500
    assert ssd.backend._block_state_at(0).erase_count == 500


def test_fastforward_wear_uses_per_block_limits():
    reliability = ReliabilityConfig(base_rber=1e-5)
    ssd = _build("baseline", reliability=reliability)
    fastforward_wear(ssd, 0.8)
    wear = ssd.reliability.rber_model.wear
    counts = {ssd.backend._block_state_at(i).erase_count
              for i in range(64)}
    assert len(counts) > 1  # Gaussian limits -> heterogeneous ages
    assert ssd.backend._block_state_at(3).erase_count == int(
        0.8 * wear.limit_for(3))


def test_fastforward_wear_rejects_bad_fraction():
    ssd = _build("baseline")
    with pytest.raises(SnapshotError):
        fastforward_wear(ssd, 1.0)
    with pytest.raises(SnapshotError):
        fastforward_wear(ssd, -0.1)


def test_fastforward_wear_zero_is_noop():
    ssd = _build("baseline")
    assert fastforward_wear(ssd, 0.0) == 0
    assert ssd.backend._block_state_at(0).erase_count == 0


def test_durable_state_recovers_reliability_media():
    """Page records, wear limits and the SRT/RBT tables survive a power
    cut: ``recover_ssd`` rebuilds them from ``durable_state``."""
    from repro.core.checkpoint import durable_state, recover_ssd

    reliability = ReliabilityConfig(base_rber=1e-4, pe_mean=3.0,
                                    pe_sigma=0.5, spare_blocks_per_channel=1)
    geometry = sim_geometry(channels=2, ways=2, planes=2,
                            blocks_per_plane=10, pages_per_block=16)
    ssd = build_ssd("baseline", geometry=geometry, reliability=reliability,
                    seed=5)
    ssd.prefill()
    fastforward_wear(ssd, 0.5)
    result = ssd.run(SyntheticWorkload(pattern="rand_write",
                                       working_set_fraction=0.5),
                     duration_us=25_000.0)
    assert result.extras["rel_blocks_remapped"] > 0
    assert result.extras["rel_blocks_retired"] > 0
    recovered = recover_ssd(json.loads(json.dumps(durable_state(ssd))))
    original = ssd.reliability.state_dict()
    restored = recovered.reliability.state_dict()
    fresh = build_ssd("baseline", geometry=geometry,
                      reliability=reliability, seed=5).reliability
    for key in ("pages", "wear", "badblocks"):
        assert restored[key] == original[key], key
        assert fresh.state_dict()[key] != original[key], key
    recovered.ftl.audit()


def test_pending_event_refusal_names_the_culprit():
    """The quiescence error enumerates what is still pending."""
    ssd = _build("baseline", wear_leveling=True)
    ssd.run(_workload(), duration_us=50_000.0, max_requests=20)
    with pytest.raises(SimulationError) as excinfo:
        ssd.snapshot()
    message = str(excinfo.value)
    assert "pending:" in message
    assert "wear_level" in message


def test_quiescence_report_lists_inflight_work():
    from repro.core.checkpoint import quiescence_report

    ssd = _build("baseline")
    ssd.run(_workload(), max_requests=30)
    assert quiescence_report(ssd) == []
    ssd.run(_workload(), duration_us=ssd.sim.now + 40.0)
    assert ssd.sim.peek() is not None
    report = quiescence_report(ssd)
    assert report, "mid-request device reported quiescent"
    assert any("pending" in line or "in flight" in line
               or "t=" in line for line in report)
