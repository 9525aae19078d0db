"""Fig 14: SSD lifetime from dynamic superblock management.

(a) Bad superblocks versus data written for BASELINE / RECYCLED /
RESERV under a continuous 128 KB write stream (endurance simulator).
(b) Endurance improvement versus block-wear variation (sigma sweep),
including the WAS software baseline.
(c) WAS's scan overhead in the DES: average I/O latency as the number
of blocks whose RBER must be read out per epoch grows.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import ArchPreset, sim_geometry
from ..sim import Resource
from ..superblock import run_endurance, simulate_was
from ..workloads import SyntheticWorkload
from .common import bench_durations, format_table
from .runner import PointSpec, run_points

__all__ = ["run", "endurance_point", "was_point", "scan_point",
           "SIGMAS", "SCAN_BLOCK_COUNTS"]

SIGMAS = (300.0, 600.0, 826.9, 1200.0)
SCAN_BLOCK_COUNTS = (0, 2048, 8192, 32768)

_ENDURANCE_KW = dict(n_superblocks=512, channels=8, seed=3)

_THRESHOLD = 0.10


def endurance_point(policy: str, pe_sigma: float = None,
                    with_curve: bool = False) -> Dict:
    """One endurance simulation: lifetime summary (and bad-block curve)."""
    kwargs = dict(_ENDURANCE_KW)
    if pe_sigma is not None:
        kwargs["pe_sigma"] = pe_sigma
    result = run_endurance(policy=policy, **kwargs)
    point = {
        "first_bad_bytes": result.first_bad_bytes,
        "until_bytes": result.bytes_until_bad_fraction(_THRESHOLD),
        "remap_events": result.remap_events,
    }
    if with_curve:
        point["curve"] = [[written, bad] for written, bad in result.curve]
    return point


def was_point(pe_sigma: float) -> Dict:
    """The WAS software baseline's lifetime at one wear variation."""
    was = simulate_was(pe_sigma=pe_sigma, **_ENDURANCE_KW)
    return {"until_bytes": was.bytes_until_bad_fraction(_THRESHOLD)}


def scan_point(n_blocks: int, quick: bool) -> Dict[str, float]:
    """Mean I/O latency with one WAS RBER-scan intensity (part c)."""
    windows = bench_durations(quick)
    workload = SyntheticWorkload(pattern="seq_write", io_size=32768)
    geometry = sim_geometry()
    latency, _result = _build_with_scan(workload, geometry, n_blocks,
                                        windows)
    return {"mean_latency_us": latency}


def _part_a(points: Dict[str, Dict]) -> Dict:
    base = points["baseline"]
    rows: List[List] = []
    for policy, point in points.items():
        rows.append([
            policy.upper(),
            point["first_bad_bytes"] / 1e12,
            point["until_bytes"] / 1e12,
            point["until_bytes"] / base["until_bytes"],
            point["remap_events"],
        ])
    table = format_table(
        ["policy", "first bad (TB)", "until 10% bad (TB)",
         "endurance vs base", "remaps"],
        rows,
        title="Fig 14(a): lifetime under a continuous 128K write stream",
    )
    return {
        "curves": {p: point["curve"] for p, point in points.items()},
        "rows": rows,
        "table": table,
    }


def _part_b(per_sigma: List[Dict[str, Dict]]) -> Dict:
    series: Dict[str, List[float]] = {"recycled": [], "reserv": [],
                                      "was": []}
    for points in per_sigma:
        base_until = points["baseline"]["until_bytes"]
        for policy in ("recycled", "reserv", "was"):
            series[policy].append(
                points[policy]["until_bytes"] / base_until
            )
    rows = [
        [name] + values for name, values in series.items()
    ]
    table = format_table(
        ["policy"] + [f"sigma={s:g}" for s in SIGMAS],
        rows,
        title="Fig 14(b): endurance improvement vs wear variation",
    )
    return {"series": series, "sigmas": list(SIGMAS), "table": table}


def _part_c(scan_counts, latencies: List[float]) -> Dict:
    """WAS RBER scans steal front-end bandwidth from host I/O."""
    rows = [["avg IO latency (us)"] + latencies]
    norm = [lat / max(latencies[0], 1e-9) for lat in latencies]
    rows.append(["normalized"] + norm)
    table = format_table(
        ["metric"] + [f"{n} blocks" for n in scan_counts],
        rows,
        title="Fig 14(c): I/O latency overhead of WAS RBER scans",
    )
    return {"scan_counts": list(scan_counts), "latency_us": latencies,
            "normalized": norm, "table": table}


def _build_with_scan(workload, geometry, n_blocks, windows):
    """Run a baseline SSD with a background WAS scan process."""
    from ..controller import Breakdown
    from ..core import build_ssd

    # Write-through keeps each request's latency on the shared bus and
    # flash path (write-back's buffer equilibrium would mask the scan
    # contention the paper measures).
    ssd = build_ssd(ArchPreset.BASELINE, geometry=geometry,
                    write_policy="writethrough")
    ssd.prefill()
    if n_blocks > 0:
        # WAS re-scans every block's RBER once per epoch.  The epoch is
        # a free parameter of WAS; 10 ms keeps the scan stream a real
        # contender for the shared front-end, matching the up-to-2x
        # degradation the paper reports at large block counts.
        epoch_us = 10_000.0
        gap = max(epoch_us / n_blocks, 0.05)
        mapped = []
        for ppn in range(0, geometry.pages_total,
                         geometry.pages_per_block):
            if ssd.mapping.reverse_lookup(ppn) is not None:
                mapped.append(geometry.addr_of(ppn))
            if len(mapped) >= 512:
                break

        outstanding = Resource(ssd.sim, 256, name="scan_window")

        def read_one(addr):
            # GC may have moved/erased this page since the scan list was
            # built; WAS would simply sample another live page.
            ppn = geometry.ppn_of(addr)
            if ssd.mapping.reverse_lookup(ppn) is not None:
                breakdown = Breakdown()
                yield from ssd.datapath.io_read_flash(addr, breakdown)
            outstanding.release()

        def scanner():
            index = 0
            while True:
                # Issue at the epoch rate with a bounded in-flight window
                # (the FTL's scan queue), not one-at-a-time.
                yield outstanding.acquire()
                addr = mapped[index % len(mapped)]
                index += 1
                ssd.sim.process(read_one(addr), name="was_scan_read")
                yield ssd.sim.timeout(gap)

        if mapped:
            ssd.sim.process(scanner(), name="was_scan")
    result = ssd.run(workload, duration_us=windows["duration_us"],
                     warmup_us=windows["warmup_us"])
    return result.io_latency.mean, result


def run(quick: bool = True) -> Dict:
    """All three panels."""
    policies_a = ("baseline", "recycled", "reserv")
    policies_b = ("baseline", "recycled", "reserv")
    scan_counts = SCAN_BLOCK_COUNTS[:3] if quick else SCAN_BLOCK_COUNTS
    specs = [
        PointSpec.from_callable(endurance_point,
                                {"policy": policy, "with_curve": True},
                                key=f"fig14a:{policy}")
        for policy in policies_a
    ] + [
        spec
        for sigma in SIGMAS
        for spec in (
            [PointSpec.from_callable(
                endurance_point, {"policy": policy, "pe_sigma": sigma},
                key=f"fig14b:{policy}/s{sigma:g}")
             for policy in policies_b]
            + [PointSpec.from_callable(was_point, {"pe_sigma": sigma},
                                       key=f"fig14b:was/s{sigma:g}")]
        )
    ] + [
        PointSpec.from_callable(scan_point,
                                {"n_blocks": n_blocks, "quick": quick},
                                key=f"fig14c:{n_blocks}blk")
        for n_blocks in scan_counts
    ]
    points = iter(run_points(specs))

    a = _part_a({policy: next(points) for policy in policies_a})
    per_sigma = []
    for _sigma in SIGMAS:
        by_policy = {policy: next(points) for policy in policies_b}
        by_policy["was"] = next(points)
        per_sigma.append(by_policy)
    b = _part_b(per_sigma)
    c = _part_c(scan_counts,
                [next(points)["mean_latency_us"] for _n in scan_counts])
    return {
        "part_a": a,
        "part_b": b,
        "part_c": c,
        "table": "\n\n".join([a["table"], b["table"], c["table"]]),
    }


if __name__ == "__main__":
    print(run(quick=True)["table"])
