"""Command-line entry point: run any paper experiment.

Usage::

    python -m repro fig7                 # quick mode, parallel workers
    python -m repro fig11 --full         # longer, smoother run
    python -m repro all                  # every experiment, quick mode
    python -m repro all --jobs 4         # cap the worker pool at 4
    python -m repro fig12 --jobs 1       # deterministic serial run
    python -m repro fig8 --no-cache      # ignore + bypass cached points
    python -m repro fig13 --progress     # per-point progress on stderr
    repro-dssd fig14                     # console-script alias
    python -m repro fleet --devices 16   # sharded fleet with aged devices
    python -m repro bench                # kernel perf suite -> BENCH_kernel.json
    python -m repro bench --quick --check BENCH_kernel.json   # CI perf gate
    python -m repro fuzz --smoke         # coverage-guided fuzzer, CI gate
    python -m repro fuzz repro case.json # replay a minimized fuzz repro
    python -m repro profile ssd_point    # cProfile a bench workload

Sweep points fan out over ``--jobs`` worker processes (default: every
CPU core) and completed points are cached under ``~/.cache/repro-dssd/``
so re-running a figure only simulates what changed.  Tables printed to
stdout are byte-identical for any ``--jobs`` value and for cached vs
fresh runs; the harness summary (points computed/cached, wall time,
worker utilization) goes to stderr so it never perturbs the tables.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .experiments import EXPERIMENTS
from .experiments.runner import RunnerMetrics, configured, default_jobs

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the requested experiment(s), print tables."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "fuzz":
        # The fuzzer has its own option surface; hand off before the
        # experiment parser can reject its flags.
        from .fuzz.cli import main as fuzz_main
        return fuzz_main(raw[1:])
    if raw and raw[0] == "profile":
        # Same hand-off pattern: the profiler's flags are its own.
        from .profile import main as profile_main
        return profile_main(raw[1:])

    parser = argparse.ArgumentParser(
        prog="repro-dssd",
        description="Decoupled SSD (ISCA'23) reproduction experiments",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "bench"],
        help="paper figure/table to regenerate, 'bench' for the "
             "hot-path benchmark suite, or 'fuzz' for the workload "
             "fuzzer (see 'fuzz --help')",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="longer simulation windows (slower, smoother numbers)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for independent sweep points "
             f"(default: all {default_jobs()} CPU cores; "
             "1 = deterministic serial fallback)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the point-result cache "
             "(~/.cache/repro-dssd, override with REPRO_DSSD_CACHE_DIR)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed sweep point to stderr",
    )
    parser.add_argument(
        "--devices", type=int, default=16, metavar="N",
        help="fleet: number of simulated SSD shards (default 16; "
             "ignored by other experiments)",
    )
    bench_group = parser.add_argument_group(
        "bench options", "only used with the 'bench' experiment")
    bench_group.add_argument(
        "--quick", action="store_true",
        help="bench: smaller workloads, best of 5 repeats (CI smoke mode)",
    )
    bench_group.add_argument(
        "--output", metavar="FILE", default=None,
        help="bench: where to write the JSON report "
             "(default: BENCH_kernel.json)",
    )
    bench_group.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="bench: fail if events/sec regresses below BASELINE "
             "by more than --tolerance",
    )
    bench_group.add_argument(
        "--tolerance", type=float, default=0.30, metavar="FRAC",
        help="bench: allowed fractional regression vs the baseline "
             "(default 0.30)",
    )
    bench_group.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="bench: best-of-N wall-time measurement "
             "(default: 3, or 5 with --quick)",
    )
    bench_group.add_argument(
        "--no-history", action="store_true",
        help="bench: do not append full runs to benchmarks/history.jsonl",
    )
    args = parser.parse_args(argv)

    if args.experiment == "bench":
        from .bench import BENCH_FILE, main as bench_main
        return bench_main(
            quick=args.quick,
            output=args.output if args.output is not None else BENCH_FILE,
            check=args.check,
            tolerance=args.tolerance,
            repeats=args.repeats,
            history=not args.no_history,
        )

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    jobs = args.jobs if args.jobs and args.jobs > 0 else default_jobs()
    total = RunnerMetrics()
    for name in names:
        module = EXPERIMENTS[name]
        metrics = RunnerMetrics()
        started = time.time()
        with configured(jobs=jobs, cache=not args.no_cache,
                        progress=args.progress, metrics=metrics):
            if name == "fleet":
                result = module.run(quick=not args.full,
                                    devices=args.devices)
            else:
                result = module.run(quick=not args.full)
        elapsed = time.time() - started
        print(f"=== {name} ({module.__name__.rsplit('.', 1)[-1]}, "
              f"{elapsed:.1f}s) ===")
        print(result["table"])
        print()
        if metrics.points:
            print(f"[{name}] {metrics.format_line()}", file=sys.stderr)
        total.merge(metrics)
    if len(names) > 1 and total.points:
        print(f"[all] {total.format_line()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
