"""Bench records, the history log, the --check gate, and the profiler.

A bench record is schema 3: one flat ``benchmarks`` table keyed by
workload.  ``--check`` compares every workload in either record,
rejects a baseline of any other schema, and says when a baseline came
from other hardware.
"""

import json
import pstats

import pytest

import repro.bench
from repro.bench import (append_history, check_regression, delta_table,
                         load_history, provenance_note, run_benchmarks)
from repro.profile import main as profile_main
from repro.profile import run_profile, top_table


def _report(ev_per_sec, quick=False, cpu="test-cpu", workload="ssd_point"):
    return {
        "schema": 3,
        "quick": quick,
        "provenance": {"cpu": cpu},
        "benchmarks": {
            workload: {"events": 100, "wall_s": 1.0,
                       "events_per_sec": ev_per_sec},
        },
    }


def test_history_roundtrip(tmp_path):
    path = str(tmp_path / "nested" / "history.jsonl")
    first = append_history(_report(100.0), path)
    append_history(_report(120.0), path)
    records = load_history(path)
    assert len(records) == 2
    assert records[0]["git_sha"] == first["git_sha"]
    assert records[0]["schema"] == 3
    assert [r["benchmarks"]["ssd_point"]["events_per_sec"]
            for r in records] == [100.0, 120.0]
    # Append-only and line-oriented: every line parses independently.
    with open(path) as handle:
        for line in handle:
            json.loads(line)


def test_history_tolerates_blank_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(_report(5.0), str(path))
    path.write_text(path.read_text() + "\n\n")
    append_history(_report(6.0), str(path))
    assert len(load_history(str(path))) == 2


def test_delta_table_states_pass_and_fail():
    baseline = _report(100.0)
    table = delta_table(_report(95.0), baseline, tolerance=0.30)
    assert "ssd_point" in table and "-5.0% ok" in table
    assert "backend" not in table
    table = delta_table(_report(60.0), baseline, tolerance=0.30)
    assert "-40.0% FAIL" in table
    # The table's verdicts and the gate agree.
    failures = check_regression(_report(60.0), baseline, 0.30)
    assert len(failures) == 1 and failures[0].startswith("ssd_point:")
    assert not check_regression(_report(95.0), baseline, 0.30)


def test_missing_workload_fails():
    current = _report(100.0)
    current["benchmarks"] = {}
    failures = check_regression(current, _report(100.0))
    assert failures == ["ssd_point: missing from current run"]
    assert "FAIL (missing)" in delta_table(current, _report(100.0))


def test_unrecorded_workload_fails_closed():
    # A workload measured now but absent from the baseline is gated too.
    current = _report(100.0)
    current["benchmarks"]["new_load"] = {"events": 5, "wall_s": 1.0,
                                         "events_per_sec": 5.0}
    failures = check_regression(current, _report(100.0))
    assert failures == ["new_load: not in baseline; re-record"]
    table = delta_table(current, _report(100.0))
    row = next(line for line in table.splitlines()
               if line.startswith("new_load"))
    assert "FAIL (not in baseline; re-record)" in row
    assert "+0.0% ok" in table  # ssd_point still passes


def test_schema2_baseline_is_rejected():
    schema2 = {"schema": 2, "provenance": {"cpu": "test-cpu"},
               "backends": {"pure": {"benchmarks": {
                   "ssd_point": {"events": 100, "wall_s": 1.0,
                                 "events_per_sec": 100.0}}}}}
    with pytest.raises(ValueError, match="schema 2.*re-record"):
        check_regression(_report(100.0), schema2)
    with pytest.raises(ValueError, match="schema 2.*re-record"):
        delta_table(_report(100.0), schema2)


def test_provenance_note_flags_cross_host_baselines():
    assert provenance_note(_report(1.0), _report(1.0)) is None
    note = provenance_note(_report(1.0, cpu="cpu-a"),
                           _report(1.0, cpu="cpu-b"))
    assert note is not None and "cpu-b" in note


def test_report_is_one_flat_table(monkeypatch):
    monkeypatch.setattr(repro.bench, "WORKLOADS",
                        {"w": lambda quick: (10, 0.5)})
    report = run_benchmarks(quick=True, repeats=1)
    assert report["schema"] == 3
    assert report["provenance"]["cpu"]
    assert report["benchmarks"] == {
        "w": {"events": 10, "wall_s": 0.5, "events_per_sec": 20.0}}
    assert set(report) == {"schema", "quick", "provenance", "benchmarks"}


def test_committed_baseline_is_schema3_with_every_workload():
    with open("BENCH_kernel.json") as handle:
        baseline = json.load(handle)
    assert baseline["schema"] == 3
    assert "backends" not in baseline
    assert baseline["provenance"]["cpu"]
    assert set(baseline["benchmarks"]) == set(repro.bench.WORKLOADS)


@pytest.fixture(scope="module")
def fanout_stats():
    return run_profile("event_fanout", quick=True)


def test_profile_top_table(fanout_stats):
    table = top_table(fanout_stats, limit=10)
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "cumtime"
    assert len(lines) == 12  # header + rule + 10 rows
    assert "repro/sim/kernel.py" in table


def test_profile_cli_dumps_loadable_pstats(tmp_path, capsys):
    path = str(tmp_path / "prof.pstats")
    assert profile_main(["event_fanout", "-n", "5", "--dump", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("|")[0].strip() == "cumtime"
    assert len(lines) == 7  # header + rule + 5 rows
    assert pstats.Stats(path).total_calls > 0


def test_profile_cli_has_no_svg_output(capsys):
    with pytest.raises(SystemExit) as exc:
        profile_main(["event_fanout", "--svg", "x.svg"])
    assert exc.value.code == 2
    assert "--svg" in capsys.readouterr().err
