"""The fuzzing loop: generational, batch-synchronous, deterministic.

Determinism across ``--jobs`` is the core design constraint (the smoke
CI gate compares corpus hashes across runs *and* worker counts), and it
falls out of three rules:

1. every generation's candidate batch is derived from the seeded RNG
   and the current corpus *before* any execution is dispatched;
2. executions are pure functions of the genome (pinned device seed), so
   where they run cannot matter;
3. results are folded into the corpus in batch order (``pool.map``
   preserves order), so the coverage map -- and therefore the next
   generation's parents -- evolve identically for any worker count.

Batches are :data:`GENERATION_SIZE` genomes whatever ``jobs`` is (and
never more than the remaining budget): ``jobs`` only sizes the worker
pool.  A generation sized by the worker count would draw its mutants
from a corpus updated at different points, and give a different corpus
for each ``--jobs``.

Violations are deduplicated by oracle, ddmin-minimized inline
(serially, so the shrink sequence is deterministic too), and written as
self-contained JSON repro cases replayable via
``repro fuzz repro <case.json>``.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .corpus import Corpus
from .executor import execute
from .genome import Genome
from .minimize import minimize_for_oracle
from .mutate import mutate
from .seeds import make_seeds

__all__ = ["FuzzReport", "GENERATION_SIZE", "SMOKE_DIFF_EXECS",
           "SMOKE_DIFF_MIN_EDGES", "SMOKE_EXECS", "SMOKE_MIN_EDGES",
           "run_fuzz"]

#: Execution budget of ``--smoke`` (exec-counted, never wall-clock, so
#: the run is identical on any machine).
SMOKE_EXECS = 120

#: Execution budget of ``--differential --smoke``.  Each differential
#: execution runs the genome on both architectures (plus any power-cut
#: pass twice), so the budget is smaller than the single-arch smoke.
SMOKE_DIFF_EXECS = 48

#: Pinned floor of distinct coverage edges a smoke run must reach
#: (~1300 observed on CPython 3.11's settrace path; the floor sits at
#: ~70% of that to absorb interpreter-version line-numbering drift).
SMOKE_MIN_EDGES = 900

#: Edge floor for the differential smoke (~490 observed: the smaller
#: exec budget plus zeroed reliability knobs in every pair prune the
#: reliability/ edges; same ~70% headroom policy).
SMOKE_DIFF_MIN_EDGES = 350

#: Genomes per batch, whatever ``jobs`` is (see the module docstring).
#: It also caps how many workers one batch can keep busy.
GENERATION_SIZE = 4

#: ddmin probe budget per minimization.
MINIMIZE_TESTS = 150


@dataclass
class FuzzReport:
    """Everything one fuzzing session produced."""

    seed: int
    executions: int = 0
    corpus_size: int = 0
    corpus_hash: str = ""
    distinct_edges: int = 0
    distinct_features: int = 0
    elapsed_s: float = 0.0
    #: Whether executions ran in baseline-vs-dssd differential mode.
    differential: bool = False
    #: One entry per distinct oracle tripped:
    #: ``{"oracle", "detail", "ops", "minimized_ops", "path"}``.
    violations: List[dict] = field(default_factory=list)
    #: The main-loop genomes (seeds, then mutants) in execution order;
    #: ddmin probes are not included.  Not part of :meth:`to_dict`.
    executed: List[Genome] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "executions": self.executions,
            "corpus_size": self.corpus_size,
            "corpus_hash": self.corpus_hash,
            "distinct_edges": self.distinct_edges,
            "distinct_features": self.distinct_features,
            "elapsed_s": round(self.elapsed_s, 2),
            "differential": self.differential,
            "violations": self.violations,
        }


def _pool_execute(genome_state: dict) -> dict:
    """Top-level worker entry (must be picklable for the pool)."""
    return execute(Genome.from_dict(genome_state))


def _pool_execute_diff(genome_state: dict) -> dict:
    """Differential-mode worker entry."""
    return execute(Genome.from_dict(genome_state), differential=True)


def _execute_batch(batch: List[Genome], jobs: int,
                   differential: bool = False) -> List[dict]:
    if jobs <= 1 or len(batch) <= 1:
        return [execute(genome, differential=differential)
                for genome in batch]
    worker = _pool_execute_diff if differential else _pool_execute
    with multiprocessing.Pool(min(jobs, len(batch))) as pool:
        return pool.map(worker, [genome.to_dict() for genome in batch])


def _edge_count(corpus: Corpus) -> int:
    return sum(1 for item in corpus.seen if "->" in item)


def run_fuzz(seed: int = 7,
             execs: Optional[int] = None,
             time_budget_s: Optional[float] = None,
             jobs: int = 1,
             arch: Optional[str] = None,
             corpus_root: Optional[Path] = None,
             repro_dir: Optional[Path] = None,
             minimize: bool = True,
             differential: bool = False,
             log=None) -> FuzzReport:
    """Run one fuzzing session; returns the :class:`FuzzReport`.

    ``execs`` counts main-loop executions (seeds + mutants; ddmin
    probes are budgeted separately).  ``time_budget_s`` optionally
    stops the loop on wall-clock instead -- never combine it with a
    determinism comparison.  With ``differential=True`` every
    execution runs the genome on both architectures and compares
    their canonical end states (see :mod:`~repro.fuzz.diffcheck`);
    minimization and repro replay then happen in the same mode.
    """
    if execs is None and time_budget_s is None:
        execs = SMOKE_DIFF_EXECS if differential else SMOKE_EXECS
    say = log if log is not None else (lambda message: None)
    repro_dir = Path(repro_dir) if repro_dir is not None else None
    started = time.monotonic()
    rng = random.Random(seed)
    corpus = Corpus(root=corpus_root)
    report = FuzzReport(seed=seed, differential=differential)
    seen_oracles = set()

    def next_batch_size() -> int:
        if execs is None:
            return GENERATION_SIZE
        return max(1, min(GENERATION_SIZE, execs - report.executions))

    def out_of_budget() -> bool:
        if execs is not None and report.executions >= execs:
            return True
        if (time_budget_s is not None
                and time.monotonic() - started >= time_budget_s):
            return True
        return False

    def fold(genome: Genome, outcome: dict) -> None:
        coverage = set(outcome["edges"]) | set(outcome["features"])
        corpus.consider(genome, coverage)
        for violation in outcome["violations"]:
            _handle_violation(genome, violation)

    def _handle_violation(genome: Genome, violation: dict) -> None:
        oracle = violation["oracle"]
        if oracle in seen_oracles:
            return
        seen_oracles.add(oracle)
        say(f"[fuzz] {oracle} tripped ({len(genome.ops)} ops): "
            f"{violation['detail'][:140]}")
        entry = {"oracle": oracle, "detail": violation["detail"],
                 "ops": len(genome.ops), "minimized_ops": len(genome.ops),
                 "path": None}
        case = genome
        if minimize:
            case = minimize_for_oracle(genome, oracle,
                                       max_tests=MINIMIZE_TESTS,
                                       differential=differential)
            entry["minimized_ops"] = len(case.ops)
            say(f"[fuzz] minimized {oracle} repro to {len(case.ops)} op(s)")
        if repro_dir is not None:
            repro_dir.mkdir(parents=True, exist_ok=True)
            path = repro_dir / f"repro_{oracle}_{case.content_hash()[:12]}.json"
            case_record = {
                "schema": 1,
                "oracle": oracle,
                "detail": violation["detail"],
                "genome": case.to_dict(),
            }
            if differential:
                case_record["mode"] = "differential"
            path.write_text(json.dumps(case_record, indent=2,
                                       sort_keys=True))
            entry["path"] = str(path)
            say(f"[fuzz] repro written: {path}")
        entry["genome"] = case.to_dict()
        report.violations.append(entry)

    # Phase 1: the deterministic seed corpus.
    seeds = make_seeds(arch)
    say(f"[fuzz] seeding corpus: {len(seeds)} genome(s)")
    index = 0
    while index < len(seeds) and not out_of_budget():
        batch = seeds[index:index + next_batch_size()]
        index += len(batch)
        outcomes = _execute_batch(batch, jobs, differential)
        report.executions += len(batch)
        report.executed.extend(batch)
        for genome, outcome in zip(batch, outcomes):
            fold(genome, outcome)

    # Phase 2: coverage-guided mutation generations.
    while not out_of_budget() and len(corpus):
        batch = []
        for _ in range(next_batch_size()):
            parent = corpus.pick(rng)
            donor = corpus.pick(rng)
            batch.append(mutate(rng, parent, donor))
        outcomes = _execute_batch(batch, jobs, differential)
        report.executions += len(batch)
        report.executed.extend(batch)
        for genome, outcome in zip(batch, outcomes):
            fold(genome, outcome)

    report.corpus_size = len(corpus)
    report.corpus_hash = corpus.content_hash()
    report.distinct_edges = _edge_count(corpus)
    report.distinct_features = corpus.coverage_size - report.distinct_edges
    report.elapsed_s = time.monotonic() - started
    say(f"[fuzz] done: {report.executions} execs, "
        f"{report.corpus_size} corpus entries, "
        f"{report.distinct_edges} edges, "
        f"{len(report.violations)} violation(s), "
        f"corpus hash {report.corpus_hash[:16]}")
    return report
