"""``repro profile``: cProfile harness over the bench workloads.

Profiles any workload from :mod:`repro.bench` and prints the top-N
functions by cumulative time, with paths shortened to the package so
the table stays readable.  ``--dump`` also writes the raw ``pstats``
data, which standard viewers (snakeviz, gprof2dot, ``pstats`` itself)
open.

Usage::

    python -m repro profile ssd_point                 # top 25, quick
    python -m repro profile ssd_point --full -n 40
    python -m repro profile ssd_point --dump prof.pstats
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import List, Optional, Tuple

from .bench import WORKLOADS

__all__ = ["run_profile", "top_table", "main"]

#: (file, line, name) function key used throughout pstats.
FuncKey = Tuple[str, int, str]


def run_profile(workload: str, quick: bool = True) -> pstats.Stats:
    """Profile one bench workload; returns the collected stats."""
    fn = WORKLOADS[workload]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn(quick)
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def _location(key: FuncKey) -> str:
    """Readable ``path:line(func)`` with the package prefix stripped."""
    filename, line, name = key
    for marker in ("/repro/", "\\repro\\"):
        index = filename.rfind(marker)
        if index >= 0:
            filename = "repro/" + filename[index + len(marker):]
            break
    if filename == "~":  # builtins have no file
        return name
    return f"{filename}:{line}({name})"


def top_table(stats: pstats.Stats, limit: int = 25) -> str:
    """Top-*limit* functions by cumulative time, as printable text."""
    entries = sorted(stats.stats.items(), key=lambda item: item[1][3],
                     reverse=True)[:limit]
    headers = ("cumtime", "tottime", "ncalls", "function")
    rows = []
    for key, (cc, nc, tt, ct, _callers) in entries:
        calls = str(nc) if nc == cc else f"{nc}/{cc}"
        rows.append((f"{ct:.3f}", f"{tt:.3f}", calls, _location(key)))
    widths = [max(len(headers[col]), *(len(row[col]) for row in rows))
              if rows else len(headers[col]) for col in range(4)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    for row in rows:
        lines.append(" | ".join(cell.ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dssd profile",
        description="cProfile one bench workload and print hot functions",
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="bench workload to profile")
    parser.add_argument("--full", action="store_true",
                        help="full-size workload (default: quick)")
    parser.add_argument("-n", "--top", type=int, default=25, metavar="N",
                        help="rows in the cumulative-time table "
                             "(default 25)")
    parser.add_argument("--dump", metavar="FILE", default=None,
                        help="also dump raw pstats data for snakeviz/"
                             "pstats tooling")
    args = parser.parse_args(argv)

    stats = run_profile(args.workload, quick=not args.full)
    print(f"[profile] {args.workload} "
          f"({'quick' if not args.full else 'full'})", file=sys.stderr)
    print(top_table(stats, args.top))
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"[profile] wrote {args.dump}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
