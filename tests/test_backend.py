"""Bench records: per-kernel ("backend") tables and their comparison.

``BENCH_kernel.json`` and ``benchmarks/history.jsonl`` key each
kernel's numbers by name under ``backends``.  The simulator now has one
kernel (table ``pure``), but older records also carry a ``fast``
table; ``--check`` must compare like-for-like tables only, reject a
schema-1 record that has no ``backends`` at all, and say when a
baseline came from other hardware.
"""

import json

import pytest

import repro.bench
from repro.bench import (check_regression, delta_table, provenance_note,
                         run_benchmarks)


def _schema2(rate, cpu="cpu-a"):
    """A record from when the suite also measured a compiled kernel."""
    return {"schema": 2,
            "provenance": {"cpu": cpu},
            "backends": {
                "pure": {"benchmarks": {
                    "w": {"events": 10, "wall_s": 0.1,
                          "events_per_sec": rate}}},
                "fast": {"benchmarks": {
                    "w": {"events": 10, "wall_s": 0.05,
                          "events_per_sec": rate * 2}}},
            }}


def _one_kernel(rate):
    """A current report: the ``pure`` table only."""
    record = _schema2(rate)
    del record["backends"]["fast"]
    return record


def test_check_regression_compares_like_for_like_across_schemas():
    # One-kernel current vs a two-kernel baseline: pure is compared...
    failures = check_regression(_one_kernel(50.0), _schema2(100.0))
    assert failures and failures[0].startswith("pure/w")
    # ...and the baseline's fast table, not measured now, is skipped.
    assert check_regression(_one_kernel(100.0), _schema2(100.0)) == []
    # A workload missing within a shared table is a failure.
    broken = _schema2(100.0)
    del broken["backends"]["pure"]["benchmarks"]["w"]
    assert any("missing" in f
               for f in check_regression(broken, _schema2(100.0)))


def test_schema1_baseline_is_rejected():
    schema1 = {"schema": 1,
               "benchmarks": {"w": {"events": 10, "wall_s": 0.1,
                                    "events_per_sec": 100.0}}}
    with pytest.raises(ValueError, match="no 'backends' table"):
        check_regression(_one_kernel(100.0), schema1)
    with pytest.raises(ValueError, match="no 'backends' table"):
        delta_table(_one_kernel(100.0), schema1)


def test_provenance_note_flags_cross_host_baselines():
    assert provenance_note(_schema2(1.0), _schema2(1.0)) is None
    note = provenance_note(_schema2(1.0, "cpu-a"), _schema2(1.0, "cpu-b"))
    assert note is not None and "cpu-b" in note


def test_report_measures_one_kernel(monkeypatch):
    monkeypatch.setattr(repro.bench, "WORKLOADS",
                        {"w": lambda quick: (10, 0.5)})
    report = run_benchmarks(quick=True, repeats=1)
    assert report["schema"] == 2
    assert report["provenance"]["cpu"]
    assert report["backends"] == {"pure": {"benchmarks": {
        "w": {"events": 10, "wall_s": 0.5, "events_per_sec": 20.0}}}}


def test_committed_baseline_is_schema2_with_provenance():
    with open("BENCH_kernel.json") as handle:
        baseline = json.load(handle)
    assert baseline["schema"] == 2
    assert set(baseline["backends"]) == {"pure"}
    assert baseline["provenance"]["cpu"]
    assert set(baseline["backends"]["pure"]["benchmarks"]) == \
        set(repro.bench.WORKLOADS)
