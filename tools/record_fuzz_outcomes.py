#!/usr/bin/env python3
"""Re-record the fuzz outcome-hash genome lists and hashes.

Runs ``repro fuzz --smoke --seed 7`` in both modes (single-arch and
``--differential``), stores the genomes each run executed, and the
hash of their coverage-free outcomes, under ``src/repro/fuzz/recorded/``.
``repro fuzz --outcome-hash`` and the test suite compare against these
records, so re-record only for a deliberate change to the model's
behaviour, and update the hashes pinned in ``tests/test_fuzz_outcome.py``.

Usage::

    PYTHONPATH=src python tools/record_fuzz_outcomes.py
"""

from __future__ import annotations

import json

from repro.fuzz.engine import SMOKE_DIFF_EXECS, SMOKE_EXECS, run_fuzz
from repro.fuzz.outcome import RECORD_SEED, outcome_hash, record_path


def main() -> None:
    for differential in (False, True):
        genomes = run_fuzz(
            seed=RECORD_SEED,
            execs=SMOKE_DIFF_EXECS if differential else SMOKE_EXECS,
            minimize=False,
            differential=differential,
        ).executed
        found = outcome_hash(genomes, differential)
        # One genome per line keeps the file small and its diffs legible.
        lines = [json.dumps(genome.to_dict(), sort_keys=True,
                            separators=(",", ":")) for genome in genomes]
        path = record_path(differential)
        path.write_text(
            f'{{"seed": {RECORD_SEED}, '
            f'"differential": {json.dumps(differential)}, '
            f'"outcome_hash": "{found}",\n'
            f' "genomes": [\n' + ",\n".join(lines) + "\n]}\n")
        print(f"{path}: {len(genomes)} genomes, outcome hash {found}")


if __name__ == "__main__":
    main()
