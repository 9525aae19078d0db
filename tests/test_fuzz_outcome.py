"""The fuzz outcome hash: a behaviour gate independent of coverage.

Replays the recorded seed-7 smoke genomes with coverage off and hashes
their outcomes.  The hashes below may change only with a deliberate
change to the model's behaviour; re-record them with
``tools/record_fuzz_outcomes.py``.
"""

import pytest

from repro.fuzz.canary import DIFF_CANARY_ENV
from repro.fuzz.cli import main
from repro.fuzz.engine import SMOKE_DIFF_EXECS, SMOKE_EXECS
from repro.fuzz.outcome import load_record, outcome_hash

OUTCOME_HASHES = {
    False: "bb9a01834dd10395cfccf25ad261ac882f135abfe25243ca26ba0658050cf7de",
    True: "ef1a282948b4313fb4c7947a7f017e0bbd0e2578f65759a08a1e69b31cf4aa68",
}


@pytest.mark.parametrize("differential", [False, True],
                         ids=["smoke", "differential"])
def test_outcome_hash_matches_record(differential):
    record = load_record(differential)
    assert record["seed"] == 7
    assert record["differential"] is differential
    assert len(record["genomes"]) == (SMOKE_DIFF_EXECS if differential
                                      else SMOKE_EXECS)
    assert record["outcome_hash"] == OUTCOME_HASHES[differential]
    assert outcome_hash(record["genomes"], differential) \
        == OUTCOME_HASHES[differential]


def test_outcome_hash_sees_a_behaviour_change(monkeypatch):
    # The baseline-only trim off-by-one changes what the device stores;
    # the first differential genomes include long trims.
    genomes = load_record(True)["genomes"][:12]
    clean = outcome_hash(genomes, differential=True)
    monkeypatch.setenv(DIFF_CANARY_ENV, "1")
    assert outcome_hash(genomes, differential=True) != clean


def test_cli_outcome_hash_exit_status(monkeypatch, capsys):
    assert main(["--differential", "--outcome-hash"]) == 0
    assert OUTCOME_HASHES[True] in capsys.readouterr().out
    monkeypatch.setenv(DIFF_CANARY_ENV, "1")
    assert main(["--differential", "--outcome-hash"]) == 1
