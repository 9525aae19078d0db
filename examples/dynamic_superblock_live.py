#!/usr/bin/env python3
"""Live dynamic superblocks: hardware self-healing during host I/O.

Attaches the SRT/RBT machinery to a running dSSD_f and injects
uncorrectable errors:

* the first failure strikes mid-flight, while the host writes and GC
  collects, at a superblock the host is writing into: it retires the
  superblock the conventional way (the FTL migrates the data, blocks go
  bad) and stocks the recycle tables;
* the second failure is healed *in hardware*: the controller erases a
  recycled block, copies the dying sub-block across via global
  copyback, and installs an SRT remap -- the FTL never finds out, and
  host reads keep completing through the remap.

The script ends by checking that the FTL's mapping still agrees with
the flash: no LPN is mapped into a retired block.

Run:  python examples/dynamic_superblock_live.py
"""

from repro.core import ArchPreset, build_ssd, sim_geometry
from repro.superblock import LiveDynamicSuperblocks
from repro.workloads import SyntheticWorkload

GEOM = sim_geometry(channels=4, ways=2, planes=2, blocks_per_plane=8,
                    pages_per_block=8)


def find_full_superblock(ssd, live):
    """The fully-written superblock holding the most valid pages."""
    def info(sb, c):
        return ssd.blocks.info(live.subblock_index(sb, c))

    full = [sb for sb in range(live.manager.visible)
            if all(info(sb, c).state == "full" for c in range(GEOM.channels))]
    if not full:
        raise RuntimeError("no fully-written superblock")
    return max(full, key=lambda sb: sum(info(sb, c).valid_count
                                        for c in range(GEOM.channels)))


def open_superblock(ssd, live):
    """A superblock with a sub-block the host is writing into now."""
    for sb in range(live.manager.visible):
        if any(ssd.blocks.info(live.subblock_index(sb, c)).state == "active"
               for c in range(GEOM.channels)):
            return sb
    return find_full_superblock(ssd, live)


def main():
    ssd = build_ssd(ArchPreset.DSSD_F, geometry=GEOM, queue_depth=8,
                    prefill_fraction=0.9)
    live = LiveDynamicSuperblocks(ssd, srt_capacity=64)
    ssd.prefill()

    def inject_first():
        yield ssd.sim.timeout(200.0)
        first = open_superblock(ssd, live)
        print(f"Injecting the FIRST uncorrectable error at superblock "
              f"{first}, channel 1, at {ssd.sim.now:.0f} us while the "
              "host writes...")
        live.inject_uncorrectable(first, channel=1)

    ssd.sim.process(inject_first())
    workload = SyntheticWorkload(pattern="rand_write", io_size=4096)
    result = ssd.run(workload, duration_us=3_000)
    ssd.sim.run()
    print(f"  -> {result.requests_completed} writes completed, FTL "
          f"migrations: {live.ftl_migrations}, bad superblocks (FTL "
          f"view): {live.bad_superblocks}, recycled blocks banked: "
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
    result = ssd.run(workload, duration_us=ssd.sim.now + 10_000,
                     trigger_gc=False)
    print(f"  -> {result.requests_completed} reads completed, mean "
          f"latency {result.io_latency.mean:.1f} us; the FTL never "
          "learned a second block died.")
    assert not ssd.ftl.audit(), ssd.ftl.audit()


if __name__ == "__main__":
    main()
