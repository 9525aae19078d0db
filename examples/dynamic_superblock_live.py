#!/usr/bin/env python3
"""Live dynamic superblocks: hardware self-healing during host I/O.

Attaches the SRT/RBT machinery to a running dSSD_f, serves host I/O,
and injects uncorrectable errors mid-flight:

* the first failure retires its superblock the conventional way (FTL
  migrates the data, blocks go bad) and stocks the recycle tables;
* the second failure is healed *in hardware*: the controller erases a
  recycled block, copies the dying sub-block across via global
  copyback, and installs an SRT remap -- the FTL never finds out, and
  host reads keep completing through the remap.

Run:  python examples/dynamic_superblock_live.py
"""

from repro.core import ArchPreset, build_ssd, sim_geometry
from repro.superblock import LiveDynamicSuperblocks
from repro.workloads import SyntheticWorkload

GEOM = sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=8,
                    pages_per_block=8)


def find_full_superblock(ssd, live):
    for sb in range(live.manager.visible):
        if all(ssd.blocks.info(live.subblock_index(sb, c)).state == "full"
               for c in range(GEOM.channels)):
            return sb
    raise RuntimeError("no fully-prefilled superblock")


def main():
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=GEOM, queue_depth=8)
    live = LiveDynamicSuperblocks(ssd, srt_capacity=64)
    ssd.prefill()

    first = find_full_superblock(ssd, live)
    print(f"Injecting the FIRST uncorrectable error at superblock "
          f"{first}, channel 1...")
    live.inject_uncorrectable(first, channel=1)
    ssd.sim.run()
    print(f"  -> FTL migrations: {live.ftl_migrations}, "
          f"bad superblocks (FTL view): {live.bad_superblocks}, "
          f"recycled blocks banked: "
          f"{sum(len(r) for r in live.manager.rbt)}")

    second = find_full_superblock(ssd, live)
    print(f"Injecting the SECOND uncorrectable error at superblock "
          f"{second}, channel 2...")
    live.inject_uncorrectable(second, channel=2)
    ssd.sim.run()
    stats = live.stats()
    print(f"  -> healed in hardware: recycle copies = "
          f"{stats['recycle_copies']}, pages copied via global copyback "
          f"= {stats['recycled_pages_copied']}, bad superblocks still "
          f"{stats['bad_superblocks']}")
    original = live.subblock_addr(second, 2, page=0)
    print(f"  -> SRT redirect: {tuple(original)} now resolves to "
          f"{tuple(live.remap(original))}")

    print("\nServing host reads through the remap...")
    workload = SyntheticWorkload(pattern="rand_read", io_size=4096)
    result = ssd.run(workload, duration_us=10_000, trigger_gc=False)
    print(f"  -> {result.requests_completed} reads completed, mean "
          f"latency {result.io_latency.mean:.1f} us; the FTL never "
          "learned a second block died.")


if __name__ == "__main__":
    main()
