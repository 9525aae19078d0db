"""Tests for the CLI and the experiment-harness plumbing."""

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.experiments.common import format_table, normalized


def test_experiments_registry_covers_every_figure():
    expected = {"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "table3",
                "ablations", "reliability", "fleet"}
    assert set(EXPERIMENTS) == expected


def test_every_experiment_module_has_run():
    for name, module in EXPERIMENTS.items():
        assert callable(module.run), name
        assert module.__doc__, name


def test_cli_runs_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "dssd" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_accepts_runner_flags(capsys):
    assert main(["table3", "--jobs", "2", "--no-cache",
                 "--progress"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_cli_help_documents_runner_flags(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "--jobs" in out
    assert "--no-cache" in out
    assert "repro-dssd" in out


def test_cli_rejects_bad_jobs_value():
    with pytest.raises(SystemExit):
        main(["table3", "--jobs", "many"])


def test_every_experiment_module_exposes_point_specs():
    """Each sweep module's point functions resolve through PointSpec."""
    import inspect

    from repro.experiments.runner import PointSpec

    for name, module in EXPERIMENTS.items():
        if name == "table3":  # static table, no simulation points
            continue
        points = [obj for obj_name, obj in vars(module).items()
                  if inspect.isfunction(obj)
                  and obj.__module__ == module.__name__
                  and obj_name.endswith("_point")]
        assert points, f"{name} declares no point functions"
        for func in points:
            spec = PointSpec.from_callable(func, {})
            assert spec.resolve() is func


def test_format_table_alignment():
    table = format_table(["a", "long_header"], [[1, 2.5], ["xx", 0.001]],
                         title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "long_header" in lines[1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) <= 2  # header/body aligned


def test_format_table_float_rendering():
    table = format_table(["v"], [[1234.5678], [0.00042], [0.0], [1.5]])
    assert "1.23e+03" in table or "1230" in table
    assert "0.00042" in table
    assert "1.5" in table


def test_normalized_helper():
    assert normalized([2.0, 4.0, 6.0]) == [1.0, 2.0, 3.0]
    assert normalized([2.0, 4.0], base=4.0) == [0.5, 1.0]
    assert normalized([0.0, 1.0]) == [0.0, 0.0]


# ---------------------------------------------------------------- exit codes


def test_cli_fuzz_clean_run_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_DSSD_FUZZ_CANARY", raising=False)
    rc = main(["fuzz", "--execs", "4", "--seed", "7", "--no-minimize",
               "--repro-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    payload = __import__("json").loads(out)
    assert payload["executions"] == 4
    assert payload["violations"] == []


def test_cli_fuzz_violation_exits_nonzero(tmp_path, monkeypatch, capsys):
    # The hidden canary bug leaks a queue slot on big TRIMs; the
    # trim-heavy seed trips it within the first dozen executions.
    monkeypatch.setenv("REPRO_DSSD_FUZZ_CANARY", "1")
    rc = main(["fuzz", "--execs", "12", "--seed", "7", "--no-minimize",
               "--repro-dir", str(tmp_path)])
    assert rc == 1
    payload = __import__("json").loads(capsys.readouterr().out)
    assert payload["violations"]


def test_cli_fuzz_repro_replay_exit_codes(monkeypatch, capsys):
    import pathlib

    case = sorted((pathlib.Path(__file__).parent / "fuzz_corpus")
                  .glob("repro_leaked_holds_*.json"))[0]
    monkeypatch.delenv("REPRO_DSSD_FUZZ_CANARY", raising=False)
    assert main(["fuzz", "repro", str(case)]) == 0
    monkeypatch.setenv("REPRO_DSSD_FUZZ_CANARY", "1")
    assert main(["fuzz", "repro", str(case)]) == 1
    capsys.readouterr()


def test_cli_fuzz_repro_usage_error():
    assert main(["fuzz", "repro"]) == 2


def _bench_record(events_per_sec):
    return {"schema": 3, "benchmarks": {
        "drain": {"events": 10, "wall_s": 0.1,
                  "events_per_sec": events_per_sec}}}


def _fake_bench_report():
    return _bench_record(100.0)


def test_cli_bench_check_regression_exits_nonzero(tmp_path, monkeypatch,
                                                  capsys):
    import json

    import repro.bench

    monkeypatch.setattr(repro.bench, "run_benchmarks",
                        lambda **kwargs: _fake_bench_report())
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_bench_record(1000.0)))
    out = tmp_path / "out.json"
    rc = main(["bench", "--quick", "--check", str(baseline),
               "--output", str(out)])
    assert rc == 1
    capsys.readouterr()


def test_cli_bench_check_rejects_old_schema_baseline(tmp_path, monkeypatch,
                                                    capsys):
    import json

    import repro.bench

    monkeypatch.setattr(repro.bench, "run_benchmarks",
                        lambda **kwargs: _fake_bench_report())
    baseline = tmp_path / "baseline.json"
    old = {"schema": 2, "backends": {"pure": _fake_bench_report()}}
    baseline.write_text(json.dumps(old))
    rc = main(["bench", "--quick", "--check", str(baseline),
               "--output", str(tmp_path / "out.json")])
    assert rc == 1
    assert "re-record" in capsys.readouterr().err


def test_cli_bench_check_within_tolerance_exits_zero(tmp_path, monkeypatch,
                                                     capsys):
    import json

    import repro.bench

    monkeypatch.setattr(repro.bench, "run_benchmarks",
                        lambda **kwargs: _fake_bench_report())
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_bench_record(100.0)))
    rc = main(["bench", "--quick", "--check", str(baseline),
               "--output", str(tmp_path / "out.json")])
    assert rc == 0
    capsys.readouterr()
