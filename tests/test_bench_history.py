"""Bench history log, the --check delta table, and the profiler."""

import json

import pytest

from repro.bench import (append_history, check_regression, delta_table,
                         load_history)
from repro.profile import run_profile, top_table, write_flamegraph_svg


def _report(ev_per_sec, quick=False):
    return {
        "schema": 2,
        "quick": quick,
        "provenance": {"cpu": "test-cpu"},
        "backends": {
            "pure": {"benchmarks": {
                "ssd_point": {"events": 100, "wall_s": 1.0,
                              "events_per_sec": ev_per_sec},
            }},
        },
    }


def test_history_roundtrip(tmp_path):
    path = str(tmp_path / "nested" / "history.jsonl")
    first = append_history(_report(100.0), path)
    append_history(_report(120.0), path)
    records = load_history(path)
    assert len(records) == 2
    assert records[0]["git_sha"] == first["git_sha"]
    assert records[0]["schema"] == 2
    assert [r["backends"]["pure"]["benchmarks"]["ssd_point"]
            ["events_per_sec"] for r in records] == [100.0, 120.0]
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
    table = delta_table(_report(60.0), baseline, tolerance=0.30)
    assert "-40.0% FAIL" in table
    # The table's verdicts and the gate agree.
    assert check_regression(_report(60.0), baseline, 0.30)
    assert not check_regression(_report(95.0), baseline, 0.30)


def test_delta_table_skips_unmeasured_backend():
    baseline = _report(100.0)
    baseline["backends"]["fast"] = {"benchmarks": {
        "ssd_point": {"events": 100, "wall_s": 0.5,
                      "events_per_sec": 200.0}}}
    table = delta_table(_report(100.0), baseline)
    assert "skip (backend not measured)" in table
    assert "FAIL" not in table


@pytest.fixture(scope="module")
def fanout_stats():
    return run_profile("event_fanout", quick=True)


def test_profile_top_table(fanout_stats):
    table = top_table(fanout_stats, limit=10)
    lines = table.splitlines()
    assert lines[0].split("|")[0].strip() == "cumtime"
    assert len(lines) == 12  # header + rule + 10 rows
    assert "repro/sim/kernel.py" in table


def test_profile_flamegraph_svg(fanout_stats, tmp_path):
    path = tmp_path / "flame.svg"
    write_flamegraph_svg(fanout_stats, str(path))
    svg = path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "bench_event_fanout" in svg
