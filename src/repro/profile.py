"""``repro profile``: cProfile harness over the bench workloads.

Profiles any workload from :mod:`repro.bench` and prints the top-N
functions by cumulative time, with paths shortened to the package so
the table stays readable.  ``--svg`` additionally
renders a flamegraph-style icicle chart as a dependency-free SVG --
approximated from the deterministic cProfile call graph (cumulative
time apportioned down caller->callee edges), which is exact for the
tree-shaped call patterns the simulator hot path consists of and a
fallback, not a sampled flamegraph, where the graph has cycles.

Usage::

    python -m repro profile ssd_point                 # top 25, quick
    python -m repro profile ssd_point --full -n 40
    python -m repro profile ssd_point --svg flame.svg
"""

from __future__ import annotations

import argparse
import cProfile
import html
import pstats
import sys
from typing import Any, Dict, List, Optional, Tuple

from .bench import WORKLOADS

__all__ = ["run_profile", "top_table", "write_flamegraph_svg", "main"]

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


def _call_tree(stats: pstats.Stats) -> Tuple[Dict[FuncKey, List[
        Tuple[FuncKey, float]]], List[Tuple[FuncKey, float]]]:
    """``(children, roots)`` from the pstats call graph.

    ``children[f]`` lists ``(callee, seconds)`` -- the cumulative time a
    callee spent under calls *from f* (pstats records it per edge, so no
    estimation is needed).  Roots are functions nobody profiled calls.
    """
    children: Dict[FuncKey, List[Tuple[FuncKey, float]]] = {}
    called = set()
    for func, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        for caller, edge in callers.items():
            children.setdefault(caller, []).append((func, edge[3]))
            called.add(func)
    roots = [(func, entry[3]) for func, entry in stats.stats.items()
             if func not in called]
    for bucket in children.values():
        bucket.sort(key=lambda item: item[1], reverse=True)
    roots.sort(key=lambda item: item[1], reverse=True)
    return children, roots


_ROW_H = 18
_MIN_W = 1.0  # px; thinner frames are dropped, not drawn illegibly


def _palette(name: str) -> str:
    # Deterministic warm color per function name (flamegraph idiom).
    seed = sum(ord(ch) for ch in name)
    return (f"rgb({205 + seed * 7 % 50},"
            f"{80 + seed * 11 % 110},{seed * 13 % 60})")


def write_flamegraph_svg(stats: pstats.Stats, path: str,
                         width: int = 1200, max_depth: int = 40) -> None:
    """Render an icicle chart of the call graph to *path*.

    Cycles (a function reached again under itself) are cut rather than
    unrolled, so recursive frames understate their subtree -- acceptable
    for a fallback visualization of a mostly tree-shaped DES hot path.
    """
    children, roots = _call_tree(stats)
    total = sum(seconds for _func, seconds in roots) or 1.0
    scale = width / total
    rects: List[str] = []

    def emit(func: FuncKey, seconds: float, x: float, depth: int,
             stack: frozenset) -> None:
        w = seconds * scale
        if w < _MIN_W or depth >= max_depth or func in stack:
            return
        label = _location(func)
        title = html.escape(f"{label} -- {seconds:.3f}s "
                            f"({seconds / total:.1%})")
        rects.append(
            f'<g><title>{title}</title>'
            f'<rect x="{x:.2f}" y="{depth * _ROW_H}" width="{w:.2f}" '
            f'height="{_ROW_H - 1}" fill="{_palette(func[2])}"/>'
            + (f'<text x="{x + 2:.2f}" y="{depth * _ROW_H + 13}" '
               f'font-size="11" font-family="monospace">'
               f'{html.escape(label[:max(1, int(w / 7))])}</text>'
               if w > 30 else "") + "</g>")
        child_x = x
        for callee, child_seconds in children.get(func, ()):
            # An edge cannot outweigh its parent frame; clamp defensively
            # (pstats rounds per edge).
            child_seconds = min(child_seconds, seconds)
            emit(callee, child_seconds, child_x, depth + 1,
                 stack | {func})
            child_x += child_seconds * scale
            if child_x > x + seconds * scale:
                break

    x = 0.0
    for func, seconds in roots:
        emit(func, seconds, x, 0, frozenset())
        x += seconds * scale
    height = (max_depth + 1) * _ROW_H
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="monospace">'
           + "".join(rects) + "</svg>\n")
    with open(path, "w") as handle:
        handle.write(svg)


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
    parser.add_argument("--svg", metavar="FILE", default=None,
                        help="also write a flamegraph-style icicle SVG")
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
    if args.svg:
        write_flamegraph_svg(stats, args.svg)
        print(f"[profile] wrote {args.svg}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
