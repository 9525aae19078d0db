"""Coverage collection: branch edges plus semantic device-state features.

Two signals feed the corpus scheduler:

* **Line edges** -- ``(previous line -> current line)`` pairs inside the
  watched subsystems (``ftl/``, ``host/qos``, ``reliability/``,
  ``core/datapath``), collected by a :func:`sys.settrace` local tracer
  that keeps the previous line per frame, so interleaved generator
  frames of one module never form an edge between them.  Edges are
  encoded as stable strings (``"ftl/gc.py:241->252"``) so they compare
  identically across processes and runs.

* **Semantic features** -- bucketed device-state observations after a
  run (GC episode depth, ECC ladder level reached, spare-block
  exhaustion, queue-full drops...).  These catch state-space novelty
  that pure control-flow coverage misses: the same code path at GC
  depth 8 is a different scenario than at depth 1.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from typing import Optional, Set

__all__ = ["CoverageCollector", "semantic_features"]

#: Path prefixes (relative to the repro package root) under watch.
WATCHED_PREFIXES = ("ftl/", "host/qos", "reliability/", "core/datapath")

_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)

# Watched packages that the executor otherwise imports lazily (the
# reliability engine only loads when a genome enables faults).  If the
# first such import happens *under* an active tracer, that one execution
# records module-body edges no later run can reproduce, so coverage --
# and the corpus hash -- would depend on process history.  Import them
# here, before any collector installs, so tracing never sees an import.
from ..reliability import (  # noqa: E402,F401  (placement is the point)
    badblocks as _badblocks,
    config as _rel_config,
    engine as _rel_engine,
    faults as _faults,
    ladder as _ladder,
    rber as _rber,
)
# Prefill memoizes its random draw per process, so whether the draw's
# body runs depends on which devices this process prefilled before, not
# on the genome.  Its code is never traced, which keeps coverage a
# function of the genome alone.
from ..ftl.ftl import _prefill_draws  # noqa: E402

_UNTRACED = (_prefill_draws.__wrapped__.__code__,)


def _watch_key(filename: str) -> Optional[str]:
    """Relative module key for a watched file, else None."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    relative = filename[len(_PACKAGE_ROOT):].lstrip("/\\").replace("\\", "/")
    for prefix in WATCHED_PREFIXES:
        if relative.startswith(prefix):
            return relative
    return None


class CoverageCollector:
    """Context manager accumulating line edges from watched modules.

    Use one collector per execution; ``edges`` holds the stable string
    encoding.  Collectors nest poorly (tracing is process-global), so
    the executor owns exactly one per run.
    """

    def __init__(self) -> None:
        self.edges: Set[str] = set()
        #: code object -> watch key, or None for code left untraced.
        self._keys: dict = dict.fromkeys(_UNTRACED)
        self._gc_was_enabled = True

    def _key_for(self, code) -> Optional[str]:
        key = self._keys.get(code)
        if key is None and code not in self._keys:
            key = self._keys[code] = _watch_key(code.co_filename)
        return key

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        key = self._key_for(frame.f_code)
        if key is None:
            return None
        # Per-frame previous line lives in the closure: exact edges
        # even through recursion and generator re-entry.
        state = {"last": frame.f_lineno}
        edges = self.edges

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                edges.add(f"{key}:{state['last']}->{line}")
                state["last"] = line
            return local_trace

        return local_trace

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "CoverageCollector":
        # Earlier device runs leave reference cycles of suspended
        # generators behind; the cyclic collector closes them whenever
        # it happens to fire, and their ``finally`` blocks would then
        # count as this execution's edges -- coverage (and the corpus
        # hash) would depend on process history.  Collect that garbage
        # before tracing starts and hold the collector off while it runs.
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.settrace(self._global_trace)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.settrace(None)
        if self._gc_was_enabled:
            gc.enable()


# -- semantic features --------------------------------------------------------

def _bucket(value: float) -> str:
    """Coarse log2 bucket so features saturate instead of exploding."""
    value = int(value)
    if value <= 0:
        return "0"
    if value >= 256:
        return "256+"
    bucket = 1
    while bucket * 2 <= value:
        bucket *= 2
    return f"{bucket}-{bucket * 2 - 1}"


def semantic_features(ssd, status: str) -> Set[str]:
    """Device-state observations after one execution, as feature strings."""
    features = {f"status:{status}"}
    gc_stats = ssd.gc.stats
    features.add(f"gc-episodes:{_bucket(gc_stats.episodes)}")
    features.add(f"gc-pages-moved:{_bucket(gc_stats.pages_moved)}")
    if ssd.blocks.bad_blocks:
        features.add(f"bad-blocks:{_bucket(ssd.blocks.bad_blocks)}")
    if ssd.reliability is not None:
        stats = ssd.reliability.stats_dict()
        features.add(f"ecc-ladder-retries:{_bucket(stats['ladder_retries'])}")
        features.add(f"error-generation:{int(stats['max_generation'])}")
        if stats["spares_remaining"] == 0 and stats["blocks_remapped"] > 0:
            features.add("spares-exhausted")
        if stats["fault_retries"]:
            features.add(f"fault-retries:{_bucket(stats['fault_retries'])}")
        if stats["uncorrectable_pages"]:
            features.add("uncorrectable-pages")
        if stats["raid_recoveries"]:
            features.add("raid-recoveries")
    frontend = ssd.frontend
    if frontend is not None:
        dropped = sum(stats.dropped for stats in frontend.stats)
        if dropped:
            features.add(f"qos-drops:{_bucket(dropped)}")
    return features
