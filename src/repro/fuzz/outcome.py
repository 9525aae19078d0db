"""Behaviour gate for the fuzzer: replay recorded genomes, hash outcomes.

The corpus hash is not a behaviour check.  Corpus membership follows
line-edge coverage, so any change to the shape of the watched code
moves it, even one that changes nothing the device does.  The outcome
hash is the check that should move only with the model: it replays
the genomes one pinned smoke run executed (``repro fuzz --smoke --seed
7``, with and without ``--differential``) through
:func:`~repro.fuzz.executor.execute` with coverage off, and hashes what
each execution produced -- status, detail, violations, semantic
features, the canonical end state and the metrics.

The genome lists and the hash recorded with them live in
``fuzz/recorded/``.  ``repro fuzz --outcome-hash`` recomputes the hash
and compares it with the recorded one; like a perfbench fingerprint,
a mismatch means the model's behaviour changed.  Re-record only for a
deliberate model change::

    python tools/record_fuzz_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

from .executor import execute
from .genome import Genome

__all__ = ["RECORD_SEED", "load_record", "outcome_hash", "record_path"]

#: The fuzz seed whose smoke run the recorded genome lists come from.
RECORD_SEED = 7

_RECORD_DIR = Path(__file__).resolve().parent / "recorded"

#: The outcome fields the hash covers; ``edges`` is left out on purpose.
_HASHED = ("status", "detail", "violations", "features", "canonical",
           "metrics")


def record_path(differential: bool) -> Path:
    """Path of the recorded genome list for one smoke mode."""
    suffix = "_differential" if differential else ""
    return _RECORD_DIR / f"smoke_seed{RECORD_SEED}{suffix}.json"


def load_record(differential: bool) -> dict:
    """The recorded ``{"outcome_hash", "genomes", ...}`` for one mode.

    ``genomes`` comes back as :class:`~repro.fuzz.genome.Genome` objects.
    """
    record = json.loads(record_path(differential).read_text())
    record["genomes"] = [Genome.from_dict(state)
                         for state in record["genomes"]]
    return record


def outcome_hash(genomes: List[Genome], differential: bool) -> str:
    """SHA-256 over the coverage-free outcomes of *genomes*, in order."""
    digest = hashlib.sha256()
    for genome in genomes:
        outcome = execute(genome, collect_coverage=False,
                          differential=differential)
        record = {key: outcome[key] for key in _HASHED}
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()
