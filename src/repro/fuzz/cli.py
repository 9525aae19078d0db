"""The ``repro fuzz`` command-line verb.

Usage::

    python -m repro fuzz --smoke --seed 7      # deterministic CI gate
    python -m repro fuzz --execs 500 --jobs 4  # longer exploration
    python -m repro fuzz --time 60             # wall-clock budget
    python -m repro fuzz --differential --smoke  # baseline-vs-dssd gate
    python -m repro fuzz repro case.json       # replay a saved repro
    python -m repro fuzz --outcome-hash        # behaviour gate
    python -m repro fuzz --differential --outcome-hash

Exit codes: 0 when no oracle tripped (or a replayed repro no longer
reproduces, or the outcome hash matches its record), 1 when a
violation was found (or a replay still reproduces, or the outcome hash
differs from its record), 2 when a ``--smoke`` run misses its pinned
coverage floor or a repro case file is missing, truncated, or
malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ReproError
from .engine import (SMOKE_DIFF_EXECS, SMOKE_DIFF_MIN_EDGES, SMOKE_EXECS,
                     SMOKE_MIN_EDGES, run_fuzz)
from .executor import execute
from .genome import ARCHES, Genome
from .outcome import load_record, outcome_hash, record_path

__all__ = ["CaseFileError", "load_case", "main", "replay_case"]


class CaseFileError(ReproError):
    """A repro case file could not be loaded (missing/truncated/bad)."""


def load_case(path: Path) -> dict:
    """Load and validate a saved repro case.

    Raises :class:`CaseFileError` with a one-line diagnostic for every
    failure mode a file can have -- missing, unreadable, truncated or
    non-JSON, wrong schema version, or a missing/malformed genome --
    instead of letting the raw traceback escape to the operator.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseFileError(f"cannot read repro case {path}: "
                            f"{exc.strerror or exc}") from exc
    try:
        case = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFileError(f"repro case {path} is not valid JSON "
                            f"(truncated?): {exc}") from exc
    if not isinstance(case, dict):
        raise CaseFileError(f"repro case {path} is not a JSON object")
    schema = case.get("schema")
    if schema != 1:
        raise CaseFileError(f"repro case {path} has unsupported schema "
                            f"{schema!r} (expected 1)")
    genome_state = case.get("genome")
    if not isinstance(genome_state, dict):
        raise CaseFileError(f"repro case {path} is missing its genome")
    try:
        case["_genome"] = Genome.from_dict(genome_state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseFileError(f"repro case {path} has a malformed genome: "
                            f"{exc}") from exc
    return case


def replay_case(path: Path) -> dict:
    """Replay a saved repro case; returns the execution outcome.

    Differential cases (``"mode": "differential"``) replay in
    differential mode, so an ``arch_divergence`` repro re-runs the
    same baseline-vs-dssd comparison that produced it.  Raises
    :class:`CaseFileError` on an unloadable case file.
    """
    case = load_case(Path(path))
    return execute(case["_genome"], collect_coverage=False,
                   differential=case.get("mode") == "differential")


def _run_repro(path: str) -> int:
    try:
        case = load_case(Path(path))
    except CaseFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    oracle = case.get("oracle")
    outcome = execute(case["_genome"], collect_coverage=False,
                      differential=case.get("mode") == "differential")
    tripped = [v for v in outcome["violations"]
               if oracle is None or v["oracle"] == oracle]
    print(f"replayed {path}: status={outcome['status']}")
    for violation in outcome["violations"]:
        print(f"  violation: {violation['oracle']}: {violation['detail']}")
    if tripped:
        print(f"repro CONFIRMED ({oracle or 'any oracle'})")
        return 1
    print("repro no longer triggers (fixed?)")
    return 0


def _run_outcome_hash(differential: bool) -> int:
    record = load_record(differential)
    found = outcome_hash(record["genomes"], differential)
    recorded = record["outcome_hash"]
    print(json.dumps({"differential": differential,
                      "genomes": len(record["genomes"]),
                      "outcome_hash": found,
                      "recorded": recorded}, indent=2, sort_keys=True))
    if found != recorded:
        print(f"[fuzz] outcome hash {found[:16]} differs from "
              f"{recorded[:16]} recorded in {record_path(differential)}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "repro":
        if len(argv) != 2:
            print("usage: repro fuzz repro <case.json>", file=sys.stderr)
            return 2
        return _run_repro(argv[1])

    parser = argparse.ArgumentParser(
        prog="repro-dssd fuzz",
        description="coverage-guided fuzzing of NVMe command sequences "
                    "against the simulated SSD's invariant oracles",
    )
    parser.add_argument(
        "--seed", type=int, default=7, metavar="N",
        help="RNG seed for the mutation schedule (default 7)",
    )
    parser.add_argument(
        "--execs", type=int, default=None, metavar="N",
        help="stop after N genome executions",
    )
    parser.add_argument(
        "--time", type=float, default=None, metavar="SECONDS",
        help="stop after a wall-clock budget (non-deterministic stop "
             "point; don't combine with corpus-hash comparisons)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes per batch (default 1; results are "
             "identical for any value)",
    )
    parser.add_argument(
        "--arch", choices=ARCHES, default=None,
        help="pin every genome to one architecture preset",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="run every genome on both the baseline and dssd presets "
             "and flag canonical end-state mismatches as "
             "arch_divergence findings",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI mode: exactly {SMOKE_EXECS} execs "
             f"({SMOKE_DIFF_EXECS} with --differential), asserts at "
             f"least {SMOKE_MIN_EDGES} distinct coverage edges",
    )
    parser.add_argument(
        "--outcome-hash", action="store_true",
        help="replay the recorded seed-7 smoke genomes (differential "
             "ones with --differential) without coverage and compare "
             "the hash of their outcomes with the recorded hash",
    )
    parser.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="persist interesting genomes as <hash>.json here",
    )
    parser.add_argument(
        "--repro-dir", metavar="DIR", default=".",
        help="write minimized repro cases here (default: cwd)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip ddmin shrinking of failing genomes",
    )
    args = parser.parse_args(argv)
    if args.outcome_hash:
        return _run_outcome_hash(args.differential)

    execs = args.execs
    time_budget = args.time
    if args.smoke:
        execs = SMOKE_DIFF_EXECS if args.differential else SMOKE_EXECS
        time_budget = None

    report = run_fuzz(
        seed=args.seed,
        execs=execs,
        time_budget_s=time_budget,
        jobs=max(args.jobs, 1),
        arch=args.arch,
        corpus_root=Path(args.corpus_dir) if args.corpus_dir else None,
        repro_dir=Path(args.repro_dir) if args.repro_dir else None,
        minimize=not args.no_minimize,
        differential=args.differential,
        log=lambda message: print(message, file=sys.stderr),
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))

    edge_floor = SMOKE_DIFF_MIN_EDGES if args.differential \
        else SMOKE_MIN_EDGES
    if args.smoke and report.distinct_edges < edge_floor:
        print(f"[fuzz] smoke FAILED: {report.distinct_edges} distinct "
              f"edges < pinned floor {edge_floor}", file=sys.stderr)
        return 2
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
