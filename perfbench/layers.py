"""Attribute a cProfile run's self time and calls to the ``repro`` layers.

Each profiled function is credited to the package of the file that
defines it, so the program itself carries no instrumentation.  C
functions (cProfile files them under ``~``) form the ``builtins`` layer;
everything outside ``src/repro`` (the standard library, this benchmark)
and the ``repro`` packages no workload here runs form ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

__all__ = ["LAYERS", "CALL_LAYERS", "attribute", "layer_of"]

#: Every layer a share is reported for, in report order.
LAYERS = ("kernel", "resources", "noc", "ftl", "core", "controller",
          "flash", "host", "workloads", "builtins", "other")

#: Layers whose call counts are reported too.
CALL_LAYERS = ("kernel", "resources", "noc", "ftl", "core", "controller",
               "flash", "host")

#: ``repro`` sub-package -> layer; ``sim`` is split by module below.
_PACKAGES = {name: name for name in ("noc", "ftl", "core", "controller",
                                     "flash", "host", "workloads")}
_SIM_RESOURCES = ("resources.py", "stats.py")


def layer_of(filename: str) -> str:
    """The layer that the function defined in *filename* belongs to."""
    if filename == "~":
        return "builtins"
    parts = os.path.normpath(filename).split(os.sep)
    try:
        pkg_index = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return "other"
    if pkg_index < 1 or parts[pkg_index - 1] != "src":
        return "other"
    package = parts[pkg_index + 1] if pkg_index + 2 < len(parts) else ""
    if package == "sim":
        return "resources" if parts[-1] in _SIM_RESOURCES else "kernel"
    return _PACKAGES.get(package, "other")


def attribute(profiler) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(share, calls)`` per layer from a finished ``cProfile.Profile``.

    A layer's share is its self time over the self time of everything
    profiled, so the shares of :data:`LAYERS` sum to 1.
    """
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        _prim_calls, n_calls, tottime = row[0], row[1], row[2]
        layer = layer_of(filename)
        self_time[layer] += tottime
        calls[layer] += n_calls
    total = sum(self_time.values()) or 1.0
    return ({layer: t / total for layer, t in self_time.items()}, calls)
