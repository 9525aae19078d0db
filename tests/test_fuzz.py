"""Tests for the coverage-guided workload fuzzer (``repro.fuzz``)."""

import gc
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ftl.ftl import _prefill_draws
from repro.fuzz.canary import CANARY_ENV
from repro.fuzz.corpus import Corpus
from repro.fuzz.engine import SMOKE_EXECS, SMOKE_MIN_EDGES, run_fuzz
from repro.core.checkpoint import quiescence_report
from repro.fuzz import oracles
from repro.fuzz.executor import _build_device, _run_direct, execute
from repro.fuzz.genome import (ARCHES, GC_POLICIES, MAX_OPS,
                               MAX_PAGES_PER_OP, WRITE_POLICIES, FuzzOp,
                               Genome, GenomeConfig)
from repro.fuzz.minimize import ddmin, minimize_for_oracle
from repro.fuzz.mutate import mutate
from repro.fuzz.seeds import make_seeds


# ---------------------------------------------------------------- genome


def test_genome_json_roundtrip():
    genome = Genome(
        config=GenomeConfig(arch="dssd_f", tenants=2, base_rber=1e-4),
        ops=[FuzzOp(kind="write", lpn_frac=0.5, n_pages=3, gap_us=10.0),
             FuzzOp(kind="trim", lpn_frac=0.25, n_pages=6, tenant=1)],
        origin="test",
    ).normalized()
    again = Genome.from_json(genome.to_json())
    assert again.to_dict() == genome.to_dict()
    assert again.content_hash() == genome.content_hash()


def test_content_hash_ignores_origin():
    ops = [FuzzOp(kind="read", lpn_frac=0.1)]
    a = Genome(config=GenomeConfig(), ops=ops, origin="seed:x")
    b = Genome(config=GenomeConfig(), ops=ops, origin="mutate:havoc")
    assert a.content_hash() == b.content_hash()
    c = Genome(config=GenomeConfig(arch="baseline"), ops=ops)
    assert c.content_hash() != a.content_hash()


def test_normalized_clamps_everything():
    genome = Genome(
        config=GenomeConfig(arch="nonsense", tenants=99, queue_depth=1000,
                            base_rber=1.0, snapshot_at=5.0,
                            powercut_at=3.0),
        ops=[FuzzOp(kind="bogus", lpn_frac=7.5, n_pages=10 ** 6,
                    gap_us=-3.0, tenant=-4)] * (MAX_OPS + 50),
    ).normalized()
    assert genome.config.arch in ARCHES
    assert genome.config.tenants <= 3
    assert genome.config.queue_depth <= 32
    assert genome.config.base_rber <= 1e-3
    assert genome.config.snapshot_at <= 0.9
    assert genome.config.powercut_at <= 0.9
    assert len(genome.ops) == MAX_OPS
    op = genome.ops[0]
    assert op.kind == "read"
    assert 0.0 <= op.lpn_frac < 1.0
    assert 1 <= op.n_pages <= MAX_PAGES_PER_OP
    assert op.gap_us >= 0.0
    assert 0 <= op.tenant <= 2


def test_empty_genome_gets_default_op():
    assert len(Genome(config=GenomeConfig(), ops=[]).normalized().ops) == 1


# ---------------------------------------------------------------- mutate


def test_mutation_schedule_is_seed_deterministic():
    parent = make_seeds()[0]
    donor = make_seeds()[5]

    def schedule(seed):
        rng = random.Random(seed)
        return [mutate(rng, parent, donor).content_hash()
                for _ in range(50)]

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_mutants_are_always_valid():
    rng = random.Random(3)
    genome = make_seeds()[2]
    for _ in range(200):
        genome = mutate(rng, genome, donor=make_seeds()[1])
        assert genome.to_dict() == genome.normalized().to_dict()
        assert 1 <= len(genome.ops) <= MAX_OPS
        assert genome.config.gc_policy in GC_POLICIES
        assert genome.config.write_policy in WRITE_POLICIES


def test_mutate_never_modifies_input():
    rng = random.Random(5)
    genome = make_seeds()[0]
    before = genome.to_json()
    for _ in range(50):
        mutate(rng, genome, donor=genome)
    assert genome.to_json() == before


# ---------------------------------------------------------------- corpus


def test_corpus_keeps_only_novel_coverage(tmp_path):
    corpus = Corpus(root=tmp_path)
    seeds = make_seeds()
    assert corpus.consider(seeds[0], {"e1", "e2"})
    assert not corpus.consider(seeds[1], {"e1"})  # nothing new
    assert corpus.consider(seeds[1], {"e1", "e3"})
    assert not corpus.consider(seeds[1], {"e4"})  # duplicate genome hash
    assert len(corpus) == 2
    assert corpus.coverage_size == 4
    # Entries persisted content-addressed.
    on_disk = sorted(p.stem for p in tmp_path.glob("*.json"))
    assert on_disk == sorted(e.hash for e in corpus.entries)


def test_corpus_hash_is_order_independent():
    seeds = make_seeds()
    a, b = Corpus(), Corpus()
    a.consider(seeds[0], {"x"})
    a.consider(seeds[1], {"y"})
    b.consider(seeds[1], {"y"})
    b.consider(seeds[0], {"x"})
    assert a.content_hash() == b.content_hash()


def test_corpus_pick_weighted_and_deterministic():
    corpus = Corpus()
    seeds = make_seeds()
    corpus.consider(seeds[0], {"a"})
    corpus.consider(seeds[1], {"b", "c", "d"})
    picks1 = [corpus.pick(random.Random(1)).content_hash()
              for _ in range(5)]
    picks2 = [corpus.pick(random.Random(1)).content_hash()
              for _ in range(5)]
    assert picks1 == picks2
    with pytest.raises(IndexError):
        Corpus().pick(random.Random(1))


# ---------------------------------------------------------------- executor


def test_executor_is_deterministic_and_covers_watched_code():
    genome = make_seeds()[1]
    # The first run draws prefill's offsets, the second reuses them:
    # coverage must not tell the two apart.
    _prefill_draws.cache_clear()
    first = execute(genome)
    second = execute(genome)
    assert first == second
    assert first["status"] == "ok"
    assert not first["violations"]
    assert first["edges"], "no coverage edges collected"
    watched = ("ftl/", "host/qos", "reliability/", "core/datapath")
    for edge in first["edges"]:
        assert edge.startswith(watched), edge
    assert any(f.startswith("status:") for f in first["features"])
    assert first["metrics"]["requests_completed"] > 0


def test_executor_seeds_all_clean():
    """No oracle false-positives across the whole seed corpus."""
    for genome in make_seeds():
        outcome = execute(genome, collect_coverage=False)
        assert outcome["status"] == "ok", (genome.origin, outcome["detail"])
        assert not outcome["violations"], (genome.origin,
                                           outcome["violations"])


def test_space_pressure_workload_reaches_quiescence():
    """Regression for the GC livelock the differential fuzzer surfaced.

    At the worst legal pre-conditioning (0.95 fill, 0.8 valid) the
    prefill used to consume every block including the GC reserve, and
    host writes drained GC-opened active blocks; every plane worker then
    waited forever for an erase nobody could perform.  The fixed model
    must drain this workload to quiescence on both architectures.
    """
    for arch in ("baseline", "dssd"):
        config = GenomeConfig(arch=arch, prefill_fraction=0.95,
                              prefill_valid_ratio=0.8, drop_on_full=False,
                              snapshot_at=0.0, base_rber=0.0,
                              fault_rate=0.0)
        ops = [FuzzOp(kind="write", lpn_frac=i / 24.0, n_pages=8)
               for i in range(24)]
        genome = Genome(config=config, ops=ops).normalized()
        outcome = execute(genome, collect_coverage=False)
        assert outcome["status"] == "ok", (arch, outcome["detail"])
        assert not outcome["violations"], (arch, outcome["violations"])


def test_wedged_preemptive_device_classifies_as_stall():
    """A preemptive collector defers to pending host I/O, and a
    write-through write waits for a page only the collector can free,
    so this device wedges.  The drain must still walk the stalled waits'
    10 us grid to the deadline and classify the run as ``stall``, with
    the clock and the stall count the polling model recorded."""
    config = GenomeConfig(arch="dssd", gc_policy="preemptive",
                          write_policy="writethrough", prefill_fraction=0.9,
                          prefill_valid_ratio=0.8, queue_depth=4)
    ssd = _build_device(config)
    ops = [FuzzOp(kind="write", lpn_frac=(i * 0.37) % 1.0, n_pages=8)
           for i in range(24)]
    result = _run_direct(ssd, ops, ssd.sim.now + 5_000.0)
    assert result.status == "stall"
    assert ssd.sim.now == 4999.192
    assert ssd.ftl.flush_stalls == 15_984
    assert ssd.ftl.requests_completed == 0 and ssd.gc.stats.episodes == 1
    report = quiescence_report(ssd)
    assert any("'_write_through_page'" in line for line in report)
    assert [found["oracle"] for found in oracles.check(
        ssd, result.status, result.detail)] == ["progress"]


# ---------------------------------------------------------------- ddmin


def test_ddmin_shrinks_to_minimal_core():
    ops = [FuzzOp(kind="read", lpn_frac=i / 40.0) for i in range(40)]
    ops[13] = FuzzOp(kind="trim", n_pages=6)
    ops[29] = FuzzOp(kind="flush")
    genome = Genome(config=GenomeConfig(), ops=ops).normalized()

    def predicate(candidate):
        kinds = [op.kind for op in candidate.ops]
        return "trim" in kinds and "flush" in kinds

    small = ddmin(genome, predicate, max_tests=400)
    assert predicate(small)
    assert len(small.ops) == 2


def test_minimize_for_oracle_uses_injected_executor():
    calls = {"n": 0}

    def fake_execute(genome, collect_coverage=True):
        calls["n"] += 1
        tripped = sum(op.kind == "write" for op in genome.ops) >= 2
        return {"violations": ([{"oracle": "fake", "detail": ""}]
                               if tripped else [])}

    ops = [FuzzOp(kind="write" if i % 3 == 0 else "read")
           for i in range(30)]
    genome = Genome(config=GenomeConfig(), ops=ops).normalized()
    small = minimize_for_oracle(genome, "fake", execute=fake_execute)
    assert len(small.ops) == 2
    assert all(op.kind == "write" for op in small.ops)
    assert calls["n"] > 1


# ------------------------------------------------- oracle false positives


_OP_STRATEGY = st.builds(
    FuzzOp,
    kind=st.sampled_from(["read", "write", "trim", "flush"]),
    lpn_frac=st.floats(min_value=0.0, max_value=0.999,
                       allow_nan=False, allow_infinity=False),
    n_pages=st.integers(min_value=1, max_value=MAX_PAGES_PER_OP),
    gap_us=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    tenant=st.integers(min_value=0, max_value=2),
    dram_hit=st.booleans(),
)

_CONFIG_STRATEGY = st.builds(
    GenomeConfig,
    arch=st.sampled_from(list(ARCHES)),
    tenants=st.integers(min_value=0, max_value=3),
    arbiter=st.sampled_from(["rr", "wrr", "prio"]),
    write_policy=st.sampled_from(list(WRITE_POLICIES)),
    gc_policy=st.sampled_from(list(GC_POLICIES)),
    drop_on_full=st.booleans(),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(config=_CONFIG_STRATEGY,
       ops=st.lists(_OP_STRATEGY, min_size=1, max_size=24))
def test_oracles_have_no_false_positives(config, ops):
    """Mapping/hold/accounting oracles stay silent on any valid input."""
    genome = Genome(config=config, ops=ops, origin="hypothesis").normalized()
    outcome = execute(genome, collect_coverage=False)
    oracles = {v["oracle"] for v in outcome["violations"]}
    assert outcome["status"] == "ok", (outcome["detail"], genome.to_json())
    forbidden = oracles & {"mapping", "leaked_holds", "qos_accounting",
                           "progress", "exception"}
    assert not forbidden, (outcome["violations"], genome.to_json())


# ---------------------------------------------------------------- engine


def test_smoke_run_reaches_pinned_edge_floor(tmp_path):
    report = run_fuzz(seed=7, execs=SMOKE_EXECS, jobs=1,
                      corpus_root=tmp_path / "corpus")
    assert report.executions == SMOKE_EXECS
    assert not report.violations
    assert report.distinct_edges >= SMOKE_MIN_EDGES
    assert report.corpus_size == len(list((tmp_path / "corpus")
                                          .glob("*.json")))
    # The to_dict payload is what the CLI prints.
    payload = report.to_dict()
    assert payload["corpus_hash"] == report.corpus_hash


def test_fuzz_is_deterministic_across_runs_and_jobs():
    # 56 executions, so the run spends 38 in mutation generations: a
    # generation sized by the worker count (2 x jobs) gave --jobs 4 a
    # different corpus from 56 executions on, and the same one below.
    # Two seeds diverge once the mutants get a second generation.
    reports = [run_fuzz(seed=7, execs=56, jobs=jobs)
               for jobs in (1, 1, 2, 4)]
    hashes = {r.corpus_hash for r in reports}
    assert len(hashes) == 1
    assert len({r.distinct_edges for r in reports}) == 1
    assert run_fuzz(seed=8, execs=56).corpus_hash not in hashes


def test_fuzz_batches_never_overrun_the_exec_budget():
    for jobs in (1, 4):
        assert run_fuzz(seed=7, execs=3, jobs=jobs).executions == 3


def _leave_suspended_generator_cycles():
    """Drop a device mid-run, its I/O processes suspended in datapath ops.

    Their generators sit inside ``try``/``finally`` blocks of watched
    modules, in reference cycles (kernel -> event -> process ->
    generator -> kernel) that only the cyclic garbage collector frees.
    """
    from repro.core import build_ssd
    from repro.workloads import SyntheticWorkload

    ssd = build_ssd("baseline")
    ssd.run(SyntheticWorkload(pattern="mixed", io_size=4096,
                              read_fraction=0.5), duration_us=300.0)
    assert ssd.sim.peek() is not None  # work is still in flight


def test_corpus_hash_ignores_garbage_from_earlier_devices(monkeypatch):
    """Coverage must not depend on what earlier runs left behind.

    Finalizing a suspended generator runs its ``finally`` block; if the
    cyclic collector did that while a coverage tracer was active, those
    lines would count as the traced execution's edges.  The collector
    fires at allocation-dependent moments; here it is made to fire at a
    fixed point inside every traced execution (device build).
    """
    from repro.fuzz import canary

    install = canary.maybe_install

    def collect_then_install(ssd):
        gc.collect()
        install(ssd)

    monkeypatch.setattr(canary, "maybe_install", collect_then_install)
    _leave_suspended_generator_cycles()
    dirty = run_fuzz(seed=7, execs=32, jobs=1)
    clean = run_fuzz(seed=7, execs=32, jobs=1)
    assert dirty.distinct_edges == clean.distinct_edges
    assert dirty.corpus_hash == clean.corpus_hash


# ---------------------------------------------------------------- canary


def test_fuzzer_finds_and_minimizes_canary(tmp_path, monkeypatch):
    """The hidden leaked-hold bug is found within a bounded budget and
    ddmin-shrunk to a sub-20-op repro; the repro replays clean with the
    flag off."""
    monkeypatch.setenv(CANARY_ENV, "1")
    report = run_fuzz(seed=7, execs=60, jobs=1, repro_dir=tmp_path)
    oracles = {v["oracle"] for v in report.violations}
    assert "leaked_holds" in oracles or "progress" in oracles
    for violation in report.violations:
        assert violation["minimized_ops"] < 20, violation
        assert violation["path"] is not None
        case = json.loads(open(violation["path"]).read())
        genome = Genome.from_dict(case["genome"])
        # Flag still on: the minimized repro reproduces its oracle.
        outcome = execute(genome, collect_coverage=False)
        assert violation["oracle"] in {v["oracle"]
                                       for v in outcome["violations"]}
        # Flag off: same genome replays clean.
        monkeypatch.delenv(CANARY_ENV)
        clean = execute(genome, collect_coverage=False)
        assert not clean["violations"], clean["violations"]
        monkeypatch.setenv(CANARY_ENV, "1")
