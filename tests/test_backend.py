"""Bench records: per-kernel ("backend") tables and their comparison.

``BENCH_kernel.json`` and ``benchmarks/history.jsonl`` key each
kernel's numbers by name under ``backends``.  The simulator now has one
kernel (table ``pure``), but older records also carry ``legacy`` and
``fast`` tables; ``--check`` must compare like-for-like tables only,
across both record schemas, and say when a baseline came from other
hardware.
"""

import json

import repro.bench
from repro.bench import check_regression, provenance_note, run_benchmarks


def _schema1(rate):
    return {"schema": 1,
            "benchmarks": {"w": {"events": 10, "wall_s": 0.1,
                                 "events_per_sec": rate}},
            "legacy_path": {"w": {"events": 10, "wall_s": 0.2,
                                  "events_per_sec": rate / 2}}}


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


def test_check_regression_compares_like_for_like_across_schemas():
    # Schema-2 current vs schema-1 baseline: pure maps to benchmarks,
    # the baseline's legacy table has no counterpart here and is skipped.
    assert check_regression(_schema2(100.0), _schema1(100.0)) == []
    failures = check_regression(_schema2(50.0), _schema1(100.0))
    assert failures and failures[0].startswith("pure/w")
    # A baseline table the current run did not measure is not a failure...
    assert check_regression(_schema1(100.0), _schema2(100.0)) == []
    # ...but a missing workload within a shared table is.
    broken = _schema2(100.0)
    del broken["backends"]["pure"]["benchmarks"]["w"]
    assert any("missing" in f
               for f in check_regression(broken, _schema2(100.0)))


def test_provenance_note_flags_cross_host_baselines():
    assert provenance_note(_schema2(1.0), _schema1(1.0)) is not None
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
