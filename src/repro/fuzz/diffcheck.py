"""Architecture-invariant end-state canonicalization for differential runs.

The paper's functional claim is that decoupling the flash controllers
behind a network changes *when* things happen, never *what* the device
ends up storing.  :func:`canonical_state` projects a drained device
onto exactly the state that claim covers, and :func:`diff` compares two
projections field by field -- any mismatch between a ``baseline`` and a
``dssd`` run of the same op sequence is an ``arch_divergence`` finding.

What the projection **includes** (architecture-invariant by design):

* the set of mapped LPNs -- the device's logical contents.  Which LPNs
  hold data after a drained op sequence is a pure function of the
  admission order of writes and trims, which both architectures share;
* host-visible completion counts: requests completed, trims processed,
  host submitted/completed, and per-tenant arrival/admission counters
  (completion counts are skipped under ``drop_on_full``, where *which*
  op gets dropped is a timing artifact);
* the terminal status, with exceptions normalized to their type -- a
  crash on one architecture only is itself a divergence;
* reliability verdicts that change logical contents: bad blocks
  retired, spares remapped, pages lost as uncorrectable.

What it deliberately **excludes** (timing- or placement-dependent):

* physical page numbers, wear counts, free-pool order, GC statistics --
  where data lands is the architectures' prerogative;
* latency recorders, NoC/bus/ECC meters, DRAM-buffer occupancy;
* anything mid-flight (callers drain or power-cut first).

Differential pairs must run with the reliability RNG disabled
(``base_rber == fault_rate == 0``): error injection consumes random
draws in datapath-timing order, so identical media would still see
different fault sequences across architectures.  The executor zeroes
both knobs when it builds the pair.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["canonical_state", "diff"]


def _exception_type(detail: str) -> str:
    """Normalize an exception detail line to its type name.

    The executor records ``traceback.format_exception_only`` output
    (``"SomeError: message"``); messages may embed timing or addresses,
    so only the type participates in cross-architecture comparison.
    """
    return detail.split(":", 1)[0].strip()


def canonical_state(ssd, status: str, detail: str = "") -> dict:
    """Project *ssd*'s end state onto its architecture-invariant core."""
    ftl = ssd.ftl
    state = {
        "status": status,
        "error": _exception_type(detail) if status == "exception" else "",
        "mapped_lpns": [lpn for lpn, _ppn in ftl.mapping.items()],
        "requests_completed": ftl.requests_completed,
        "trims_processed": ftl.trims_processed,
        "host_submitted": ssd.host.submitted,
        "host_completed": ssd.host.completed,
        "bad_blocks": ssd.blocks.bad_blocks,
        "tenants": [],
    }
    if ssd.reliability is not None:
        state["blocks_retired"] = ssd.reliability.badblocks.retired_blocks
        state["blocks_remapped"] = ssd.reliability.badblocks.remapped_blocks
        state["uncorrectable_pages"] = ssd.reliability.uncorrectable_pages
    else:
        state["blocks_retired"] = 0
        state["blocks_remapped"] = 0
        state["uncorrectable_pages"] = 0
    frontend = ssd.frontend
    if frontend is not None:
        drop_on_full = any(
            spec.qos is not None and spec.qos.drop_on_full
            for spec in frontend.tenants
        )
        for stats in frontend.stats:
            tenant = {"name": stats.name, "arrivals": stats.arrivals}
            if not drop_on_full:
                # Which op a full queue drops is a timing artifact, so
                # admission/completion only count when nothing drops.
                tenant["admitted"] = stats.admitted
                tenant["completed"] = stats.completed
            state["tenants"].append(tenant)
    return state


def diff(a: dict, b: dict,
         labels: Optional[tuple] = None) -> List[str]:
    """Field-by-field comparison of two :func:`canonical_state` dicts.

    Returns one human-readable line per mismatched field (empty list
    means the end states are functionally identical).  ``labels`` names
    the two sides in the output (default ``("a", "b")``).
    """
    name_a, name_b = labels if labels is not None else ("a", "b")
    lines: List[str] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if key == "mapped_lpns":
            only_a = sorted(set(va or []) - set(vb or []))
            only_b = sorted(set(vb or []) - set(va or []))
            lines.append(
                f"mapped_lpns differ: {len(only_a)} LPN(s) only in "
                f"{name_a} {only_a[:8]}, {len(only_b)} only in "
                f"{name_b} {only_b[:8]}")
        else:
            lines.append(f"{key}: {name_a}={va!r} != {name_b}={vb!r}")
    return lines
