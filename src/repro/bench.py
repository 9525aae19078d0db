"""Hot-path micro-benchmarks: events per second on pinned seeds.

``repro bench`` runs a fixed set of workloads that exercise the three
layers the simulator spends its time in -- the DES kernel's
timeout/resume cycle, the event/condition machinery, and the fNoC
packet path -- plus one end-to-end SSD sweep point, and writes the
measurements to ``BENCH_kernel.json``.  The committed copy of that file
is the repo's perf baseline: CI re-runs the suite with ``--check`` and
fails when events/sec regresses more than ``--tolerance`` (default 30%)
below the baseline.

Every workload is fully deterministic (pinned seeds, fixed iteration
counts), so the *event counts* are exact and reproducible; only the
wall-clock varies with the host.  The events/sec metric divides the
kernel's scheduled-callback count (``Simulator`` sequence counter, which
equals the number of executed heap entries once the queue drains) by the
best-of-N wall time.

Schema 3, one flat record::

    {"schema": 3, "quick": bool, "provenance": {python, platform, ...},
     "benchmarks": {workload: {"events", "wall_s", "events_per_sec"}}}

The provenance (python, CPU model) keeps a baseline captured on one
host from being silently compared against another.  ``--check``
rejects a baseline of any other schema with a re-record message, and
fails a workload that is slower than the tolerance allows, missing from
the current run, or absent from the baseline.

``--check`` prints a per-workload delta table (baseline vs current
events/sec, percent change, the gate's pass/fail verdict) before the
exit-code decision, and every full (non-``--quick``) run appends its
report plus the git commit to ``benchmarks/history.jsonl`` so the perf
timeline survives baseline overwrites (``load_history``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .sim import Simulator

__all__ = ["run_benchmarks", "check_regression", "delta_table",
           "write_report", "append_history", "load_history", "main",
           "provenance", "provenance_note", "BENCH_FILE", "HISTORY_FILE"]

#: Default output / baseline file name (repo root in CI).
BENCH_FILE = "BENCH_kernel.json"

#: Append-only JSONL log of full (non-quick) runs, one record per run.
HISTORY_FILE = "benchmarks/history.jsonl"

#: Version of the report layout written by :func:`run_benchmarks`.
SCHEMA = 3


# ---------------------------------------------------------------------------
# Workloads.  Each returns (events, wall_seconds) for one run.
# ---------------------------------------------------------------------------

def bench_timeout_chain(quick: bool) -> Tuple[int, float]:
    """The dominant pattern: many processes looping on ``yield timeout``."""
    procs = 100 if quick else 400
    steps = 250 if quick else 1000
    sim = Simulator()

    def worker(sim, index, steps):
        delay = 0.5 + (index % 7) * 0.25
        for _ in range(steps):
            yield sim.timeout(delay)

    for index in range(procs):
        sim.process(worker(sim, index, steps))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim._seq, wall


def bench_event_fanout(quick: bool) -> Tuple[int, float]:
    """Events with waiters, joins, and AllOf/AnyOf condition churn."""
    rounds = 150 if quick else 600
    width = 8
    sim = Simulator()

    def child(sim, delay):
        yield sim.timeout(delay)
        return delay

    def coordinator(sim):
        for round_index in range(rounds):
            children = [
                sim.process(child(sim, 0.25 + (i % 3) * 0.5))
                for i in range(width)
            ]
            yield sim.all_of(children)
            racers = [
                sim.process(child(sim, 1.0 + i * 0.125))
                for i in range(width)
            ]
            winner, _value = yield sim.any_of(racers)
            yield sim.all_of(racers)  # drain the losers deterministically

    sim.process(coordinator(sim))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim._seq, wall


def bench_fnoc_storm(quick: bool) -> Tuple[int, float]:
    """Seeded all-to-all packet storm over the paper's default fNoC."""
    import random

    from .noc.network import FNoC
    from .noc.packet import Packet
    from .noc.topology import Mesh1D

    k = 8
    per_source = 150 if quick else 600
    rng = random.Random(0xF0C)
    sim = Simulator()
    noc = FNoC(sim, Mesh1D(k), channel_bandwidth=1000.0)
    # Pre-draw destinations so RNG order never depends on interleaving.
    plans = [
        [(rng.randrange(k - 1), rng.choice((4096, 8192, 16384)))
         for _ in range(per_source)]
        for _src in range(k)
    ]

    def source(sim, src, plan):
        for offset, size in plan:
            dst = (src + 1 + offset) % k
            yield sim.process(noc.send(
                Packet(src=src, dst=dst, payload_bytes=size)))
            yield sim.timeout(0.5)

    for src in range(k):
        sim.process(source(sim, src, plans[src]))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim._seq, wall


def bench_ssd_point(quick: bool) -> Tuple[int, float]:
    """One canonical fig-sweep point: dSSD_f under a mixed workload."""
    from .core import build_ssd
    from .workloads import SyntheticWorkload

    duration = 10_000.0 if quick else 40_000.0
    ssd = build_ssd("dssd_f")
    workload = SyntheticWorkload(pattern="mixed", io_size=4096,
                                 read_fraction=0.5)
    t0 = time.perf_counter()
    ssd.run(workload, duration_us=duration)
    wall = time.perf_counter() - t0
    return ssd.sim._seq, wall


#: name -> workload callable.
WORKLOADS: Dict[str, Callable[[bool], Tuple[int, float]]] = {
    "timeout_chain": bench_timeout_chain,
    "event_fanout": bench_event_fanout,
    "fnoc_storm": bench_fnoc_storm,
    "ssd_point": bench_ssd_point,
}


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    """Human-readable CPU model, best effort across platforms."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def provenance() -> Dict[str, str]:
    """Where these numbers came from -- recorded into every report."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _measure(fn: Callable[[bool], Tuple[int, float]], quick: bool,
             repeats: int) -> Dict[str, float]:
    events = 0
    best = float("inf")
    for _ in range(repeats):
        run_events, wall = fn(quick)
        events = run_events
        best = min(best, wall)
    return {
        "events": events,
        "wall_s": round(best, 6),
        "events_per_sec": round(events / best, 1) if best > 0 else 0.0,
    }


def run_benchmarks(quick: bool = False,
                   repeats: Optional[int] = None) -> Dict[str, Any]:
    """Run the full suite; returns the report dict (not yet written)."""
    repeats = repeats if repeats else (5 if quick else 3)
    return {
        "schema": SCHEMA,
        "quick": quick,
        "provenance": provenance(),
        "benchmarks": {name: _measure(fn, quick, repeats)
                       for name, fn in WORKLOADS.items()},
    }


def _benchmarks(report: Dict[str, Any]) -> Dict[str, Any]:
    """A report's ``{workload: entry}`` table.

    Raises :class:`ValueError` on any other schema, so a stale baseline
    fails the gate instead of passing it with nothing compared.
    """
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"bench report is schema {report.get('schema')!r}, not "
            f"{SCHEMA}; re-record the baseline with 'repro bench'")
    return report["benchmarks"]


#: ``(workload, base events/sec, now events/sec, failure)``.
_Verdict = Tuple[str, Optional[float], Optional[float], Optional[str]]


def _verdicts(current: Dict[str, Any], baseline: Dict[str, Any],
              tolerance: float) -> List[_Verdict]:
    """One verdict per workload in either report, by name.

    *base* is ``None`` for a workload the baseline never recorded and
    *now* is ``None`` for one the current run did not measure; both
    fail.  *failure* is ``None`` when the gate passes the workload.
    """
    observed = _benchmarks(current)
    recorded = _benchmarks(baseline)
    rows: List[_Verdict] = []
    for name in sorted(set(recorded) | set(observed)):
        base = recorded[name].get("events_per_sec", 0.0) \
            if name in recorded else None
        cur = observed[name]["events_per_sec"] if name in observed \
            else None
        failure: Optional[str] = None
        if base is None:
            failure = "not in baseline; re-record"
        elif cur is None:
            failure = "missing from current run"
        elif cur < (1.0 - tolerance) * base:
            failure = (f"{cur:.0f} events/s < "
                       f"{(1.0 - tolerance) * base:.0f} (baseline "
                       f"{base:.0f} - {tolerance:.0%})")
        rows.append((name, base, cur, failure))
    return rows


def check_regression(current: Dict[str, Any], baseline: Dict[str, Any],
                     tolerance: float = 0.30) -> List[str]:
    """Regression descriptions, one per failing workload.

    A workload fails when its events/sec falls below
    ``(1 - tolerance) x baseline``, when the current run did not
    measure it, or when the baseline never recorded it (so a new
    workload is gated from the run that adds it).  A report that is
    not schema 3 raises :class:`ValueError`.
    """
    return [f"{name}: {failure}"
            for name, _base, _cur, failure in
            _verdicts(current, baseline, tolerance) if failure]


def delta_table(current: Dict[str, Any], baseline: Dict[str, Any],
                tolerance: float = 0.30) -> str:
    """Per-workload baseline-vs-current comparison, as printable text.

    One row per workload: baseline and current events/sec, percent
    change, and the verdict :func:`check_regression` reaches for it, so
    the table is the human-readable form of the gate's decision.
    """
    rows: List[Tuple[str, str, str, str]] = []
    for name, base, cur, failure in _verdicts(current, baseline, tolerance):
        if base is None:
            rows.append((name, "-", f"{cur:.0f}",
                         "FAIL (not in baseline; re-record)"))
        elif cur is None:
            rows.append((name, f"{base:.0f}", "-", "FAIL (missing)"))
        else:
            delta = f"{(cur - base) / base * 100.0:+.1f}%" if base > 0 \
                else "n/a"
            rows.append((name, f"{base:.0f}", f"{cur:.0f}",
                         f"{delta} {'FAIL' if failure else 'ok'}"))
    headers = ("workload", "base ev/s", "now ev/s", "delta")
    widths = [max(len(headers[col]), *(len(row[col]) for row in rows))
              if rows else len(headers[col]) for col in range(4)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    for row in rows:
        lines.append(" | ".join(cell.ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _git_sha() -> str:
    """Commit hash for history provenance; best effort, never raises."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def append_history(report: Dict[str, Any],
                   path: str = HISTORY_FILE) -> Dict[str, Any]:
    """Append one run record to the JSONL history; returns the record.

    The record is the full report plus the git commit it was
    measured at, so a perf timeline can be reconstructed offline
    (``load_history``) without re-running anything.
    """
    record: Dict[str, Any] = {"git_sha": _git_sha()}
    record.update(report)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path: str = HISTORY_FILE) -> List[Dict[str, Any]]:
    """Parse the bench history JSONL (blank lines tolerated)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def provenance_note(current: Dict[str, Any],
                    baseline: Dict[str, Any]) -> Optional[str]:
    """Warning line when the baseline came from different hardware."""
    mine = current.get("provenance", {}).get("cpu")
    theirs = baseline.get("provenance", {}).get("cpu")
    if mine != theirs:
        return (f"baseline CPU differs: baseline={theirs!r} "
                f"current={mine!r}; events/sec is host-relative")
    return None


def write_report(report: Dict[str, Any], path: str = BENCH_FILE) -> None:
    """Write the report as deterministic, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(quick: bool = False, output: Optional[str] = None,
         check: Optional[str] = None, tolerance: float = 0.30,
         repeats: Optional[int] = None, history: bool = True) -> int:
    """CLI entry: run, print a table, write JSON, optionally gate.

    Full (non-``quick``) runs are also appended to
    :data:`HISTORY_FILE` unless *history* is false; quick runs never
    are (CI smoke numbers would drown the timeline in noise).
    """
    report = run_benchmarks(quick=quick, repeats=repeats)
    table = report["benchmarks"]
    width = max(len(name) for name in table)
    print(f"{'benchmark':<{width}} | {'events':>9} | {'wall_s':>8} | "
          f"{'events/sec':>12}")
    print("-" * (width + 40))
    for name, entry in table.items():
        print(f"{name:<{width}} | {entry['events']:>9} | "
              f"{entry['wall_s']:>8.4f} | {entry['events_per_sec']:>12.0f}")
    if output:
        write_report(report, output)
        print(f"[bench] wrote {output}", file=sys.stderr)
    if not quick and history:
        record = append_history(report)
        print(f"[bench] appended run at {record['git_sha'][:12]} to "
              f"{HISTORY_FILE}", file=sys.stderr)
    if check:
        with open(check) as handle:
            baseline = json.load(handle)
        try:
            table = delta_table(report, baseline, tolerance)
        except ValueError as exc:
            print(f"[bench] ERROR {exc}", file=sys.stderr)
            return 1
        note = provenance_note(report, baseline)
        if note:
            print(f"[bench] NOTE {note}", file=sys.stderr)
        print()
        print(table)
        failures = check_regression(report, baseline, tolerance)
        if failures:
            for line in failures:
                print(f"[bench] REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"[bench] within {tolerance:.0%} of baseline {check}",
              file=sys.stderr)
    return 0
