"""Tests for differential fuzzing, power-loss genomes, and the repro CLI.

Covers the baseline-vs-dssd differential executor and its
``arch_divergence`` oracle, the :mod:`repro.fuzz.diffcheck`
canonicalizer's freedom from timing/wear false positives (self-diffs
are always empty), the ``powercut_at`` power-loss pass built on
``durable_state``/``recover_ssd``, the seeded differential canary, and
the hardened ``repro fuzz repro`` case loader's exit codes.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import (DURABLE_SCHEMA, durable_state,
                                   recover_ssd)
from repro.errors import SnapshotError
from repro.fuzz import diffcheck
from repro.fuzz.canary import DIFF_CANARY_ENV
from repro.fuzz.cli import CaseFileError, load_case, main, replay_case
from repro.fuzz.engine import SMOKE_DIFF_EXECS, run_fuzz
from repro.fuzz.executor import (DIFF_ARCHES, build_config, execute,
                                 _differential_pair)
from repro.fuzz.genome import (ARCHES, MAX_PAGES_PER_OP, FuzzOp, Genome,
                               GenomeConfig)
from repro.fuzz.seeds import make_seeds


def _simple_ops():
    return [FuzzOp(kind="write", lpn_frac=0.3, n_pages=2),
            FuzzOp(kind="trim", lpn_frac=0.3, n_pages=2, gap_us=40.0),
            FuzzOp(kind="write", lpn_frac=0.7, n_pages=1, gap_us=10.0),
            FuzzOp(kind="flush"),
            FuzzOp(kind="read", lpn_frac=0.7)]


# ---------------------------------------------------------- diffcheck


def test_self_diff_is_empty_for_every_arch_preset():
    """Same device diffed against itself: always empty, every preset."""
    for arch in ARCHES:
        genome = Genome(config=GenomeConfig(arch=arch), ops=_simple_ops())
        outcome = execute(genome, collect_coverage=False)
        canon = outcome["canonical"]
        assert diffcheck.diff(canon, canon) == []


_SELF_OP = st.builds(
    FuzzOp,
    kind=st.sampled_from(["read", "write", "trim", "flush"]),
    lpn_frac=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    n_pages=st.integers(min_value=1, max_value=MAX_PAGES_PER_OP),
    gap_us=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
    dram_hit=st.booleans(),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arch=st.sampled_from(["baseline", "dssd"]),
       write_policy=st.sampled_from(["writeback", "writethrough"]),
       ops=st.lists(_SELF_OP, min_size=1, max_size=12))
def test_same_arch_runs_never_diverge(arch, write_policy, ops):
    """baseline-vs-baseline and dssd-vs-dssd: no arch_divergence false
    positives from timing or wear noise -- two executions of the same
    genome on the same preset canonicalize identically."""
    genome = Genome(config=GenomeConfig(arch=arch,
                                        write_policy=write_policy),
                    ops=ops).normalized()
    first = execute(genome, collect_coverage=False)
    second = execute(genome, collect_coverage=False)
    assert diffcheck.diff(first["canonical"], second["canonical"]) == []


def test_diff_reports_mismatches_with_labels():
    a = {"mapped_lpns": [1, 2, 3], "requests_completed": 5}
    b = {"mapped_lpns": [1, 2], "requests_completed": 7}
    lines = diffcheck.diff(a, b, labels=("baseline", "dssd"))
    assert len(lines) == 2
    assert any("only in baseline [3]" in line for line in lines)
    assert any("baseline=5 != dssd=7" in line for line in lines)


def test_exception_detail_normalized_to_type():
    canon = diffcheck.canonical_state.__module__  # module import sanity
    assert canon == "repro.fuzz.diffcheck"
    assert diffcheck._exception_type(
        "MappingError: ppn 42 at t=133.7us") == "MappingError"


# ------------------------------------------------- differential executor


def test_differential_outcome_shape_and_determinism():
    genome = Genome(config=GenomeConfig(arch="dssd_f"), ops=_simple_ops())
    first = execute(genome, differential=True)
    second = execute(genome, differential=True)
    assert first == second
    assert first["status"] == "ok"
    assert not first["violations"]
    assert set(first["canonical"]) == set(DIFF_ARCHES)
    assert set(first["metrics"]) == set(DIFF_ARCHES)
    assert first["edges"]


def test_differential_pair_zeroes_arch_dependent_noise():
    genome = Genome(
        config=GenomeConfig(arch="dssd_f", base_rber=1e-4, fault_rate=0.1,
                            snapshot_at=0.5, powercut_at=0.5),
        ops=_simple_ops())
    pair = _differential_pair(genome.normalized())
    assert [g.config.arch for g in pair] == list(DIFF_ARCHES)
    for arch_genome in pair:
        assert arch_genome.config.base_rber == 0.0
        assert arch_genome.config.fault_rate == 0.0
        assert arch_genome.config.snapshot_at == 0.0
        # Power loss is architecture-invariant behaviour; it stays.
        assert arch_genome.config.powercut_at == 0.5


def test_differential_seeds_all_clean():
    """No arch_divergence false positives across the seed corpus."""
    for genome in make_seeds():
        outcome = execute(genome, collect_coverage=False,
                          differential=True)
        assert outcome["status"] == "ok", (genome.origin,
                                           outcome["detail"])
        assert not outcome["violations"], (genome.origin,
                                           outcome["violations"])


# ---------------------------------------------------------- power loss


def test_powercut_pass_is_clean_on_fixed_model():
    for policy in ("writeback", "writethrough"):
        for cut in (0.2, 0.5, 0.8):
            genome = Genome(
                config=GenomeConfig(write_policy=policy, powercut_at=cut),
                ops=_simple_ops())
            outcome = execute(genome, collect_coverage=False)
            assert outcome["status"] == "ok"
            assert not outcome["violations"], (policy, cut,
                                               outcome["violations"])


def test_durable_state_roundtrip_preserves_logical_contents():
    from repro.core.ssd import SimulatedSSD

    genome = Genome(config=GenomeConfig(), ops=_simple_ops()).normalized()
    ssd = SimulatedSSD(build_config(genome.config))
    ssd.prefill()
    ssd.ftl.start()
    ssd.sim.run()
    state = json.loads(json.dumps(durable_state(ssd)))
    assert state["schema"] == DURABLE_SCHEMA
    recovered = recover_ssd(state)
    # The recovered device serves the same logical contents...
    assert (recovered.ftl.mapping.state_dict()
            == ssd.ftl.mapping.state_dict())
    # ...from a consistent mapping/valid-page mirror at clock zero.
    recovered.ftl.audit()
    assert recovered.sim.now == 0.0


def test_recover_ssd_rebuilds_allocator_readiness():
    # At 90% prefill no plane can serve a host page; a recovered device
    # must agree, or GC reads a stale host_allocatable() and idles.
    from repro.core.ssd import SimulatedSSD

    ssd = SimulatedSSD(build_config(GenomeConfig(prefill_fraction=0.9)))
    ssd.prefill()
    ssd.ftl.start()
    ssd.sim.run()
    recovered = recover_ssd(json.loads(json.dumps(durable_state(ssd))))
    assert ssd.blocks.host_allocatable() is False
    assert recovered.blocks.host_allocatable() is False
    assert (recovered.blocks.state_dict()["free"]
            == [sorted(pool) for pool in ssd.blocks.state_dict()["free"]])
    recovered.ftl.audit()


def test_recover_ssd_rejects_wrong_schema():
    with pytest.raises(SnapshotError):
        recover_ssd({"schema": DURABLE_SCHEMA + 1})


# ------------------------------------------------- differential canary


def test_fuzzer_finds_and_shrinks_seeded_divergence(tmp_path, monkeypatch):
    """The seeded baseline-only trim off-by-one is found by the
    differential fuzzer within the smoke budget and ddmin-shrunk to at
    most 3 ops; the minimized repro replays clean with the flag off."""
    monkeypatch.setenv(DIFF_CANARY_ENV, "1")
    report = run_fuzz(seed=7, execs=SMOKE_DIFF_EXECS, jobs=1,
                      repro_dir=tmp_path, differential=True)
    divergences = [v for v in report.violations
                   if v["oracle"] == "arch_divergence"]
    assert divergences, report.violations
    for violation in divergences:
        assert violation["minimized_ops"] <= 3, violation
        assert violation["path"] is not None
        case = json.loads(open(violation["path"]).read())
        assert case["mode"] == "differential"
        genome = Genome.from_dict(case["genome"])
        # Flag still on: the minimized repro reproduces the divergence.
        outcome = execute(genome, collect_coverage=False,
                          differential=True)
        assert "arch_divergence" in {v["oracle"]
                                     for v in outcome["violations"]}
        # Flag off: same genome replays clean.
        monkeypatch.delenv(DIFF_CANARY_ENV)
        clean = execute(genome, collect_coverage=False, differential=True)
        assert not clean["violations"], clean["violations"]
        monkeypatch.setenv(DIFF_CANARY_ENV, "1")


def test_differential_fuzz_deterministic_across_jobs(monkeypatch):
    monkeypatch.delenv(DIFF_CANARY_ENV, raising=False)
    reports = [run_fuzz(seed=7, execs=16, jobs=jobs, differential=True)
               for jobs in (1, 2)]
    assert reports[0].corpus_hash == reports[1].corpus_hash
    assert reports[0].distinct_edges == reports[1].distinct_edges


# ------------------------------------------------------- repro CLI

_GOOD_CASE = {
    "schema": 1,
    "oracle": "arch_divergence",
    "mode": "differential",
    "genome": Genome(config=GenomeConfig(),
                     ops=[FuzzOp(kind="read")]).normalized().to_dict(),
}


def test_load_case_accepts_valid_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_GOOD_CASE))
    case = load_case(path)
    assert case["_genome"].ops[0].kind == "read"
    outcome = replay_case(path)
    assert outcome["status"] == "ok"


@pytest.mark.parametrize("content,match", [
    (None, "cannot read"),
    ('{"schema": 1, "genome"', "not valid JSON"),
    ('[1, 2, 3]', "not a JSON object"),
    ('{"schema": 99, "genome": {}}', "unsupported schema"),
    ('{"schema": 1}', "missing its genome"),
    ('{"schema": 1, "genome": {"config": {"arch": []}, "ops": "x"}}',
     "malformed genome"),
])
def test_load_case_diagnoses_every_failure_mode(tmp_path, content, match):
    path = tmp_path / "case.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(CaseFileError, match=match):
        load_case(path)


def test_repro_subcommand_exit_codes(tmp_path, capsys):
    # Clean replay (no oracle trips on fixed code): exit 0.
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_GOOD_CASE))
    assert main(["repro", str(good)]) == 0

    # Missing file: exit 2 with a one-line diagnostic, no traceback.
    assert main(["repro", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "error: cannot read" in err
    assert "Traceback" not in err

    # Truncated JSON: exit 2.
    bad = tmp_path / "trunc.json"
    bad.write_text('{"schema": 1, "genome"')
    assert main(["repro", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    # Usage error: exit 2.
    assert main(["repro"]) == 2
