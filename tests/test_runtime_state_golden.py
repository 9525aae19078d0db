"""Golden digests of the device state a GC-heavy run leaves behind.

:mod:`tests.test_prefill_golden` pins what pre-conditioning builds;
these cases pin what the run-time paths do to it afterwards.  Each case
pre-conditions a near-full tiny device, drives a write-leaning mix
until every request and flush has drained -- so garbage collection
relocates pages, erases victims and returns them to the free pools --
and hashes:

* every ``BlockInfo``: state, write pointer, sorted valid pages and
  pending count;
* the flash backend's sorted programmed pages and erase count per
  touched block;
* the JSON of ``Ftl.state_dict()`` and ``FlashBackend.state_dict()``,
  i.e. the checkpoint encoding of the same state.

The ``erase_hooks`` case also starts a sixth of the blocks one erase
short of their P/E limit under the reliability stack, so GC erases go
through the wear check and remap blocks onto spares or retire them.

The values in :data:`GOLDEN` were first recorded while both layers kept
each block's pages in a Python ``set``, and re-recorded once when latency
recorders dropped their unread Welford terms from ``state_dict`` (the
same digests follow from deleting only those two keys from the older
code).  A change to how block and page state is stored must reproduce
these digests exactly.  A mismatch
message prints the digest observed.

:data:`REPORT_GOLDEN` pins what the same runs report instead: the
system bus's io/gc byte timelines and the completed-bytes timeline,
the bus, DRAM, plane and fNoC utilizations, and the mean I/O and GC
latency breakdowns (which carry the queueing delay every link
returns).  Its ``gc_drain_dssd_b`` case drives the dedicated bus.
These were recorded while every link also kept busy-time bins,
per-class byte counts and wait statistics; metering less must not
move a reported number.
"""

import hashlib
import json

import pytest

from repro.core import build_ssd, fastforward_wear
from repro.flash import FlashGeometry
from repro.reliability import ReliabilityConfig
from repro.workloads import SyntheticWorkload

#: Recorded digest per case (see the module docstring).
GOLDEN = {
    "gc_drain_baseline": "d910ec485fd02ba7",
    "gc_drain_dssd_f": "1228388d4e028ca0",
    "erase_hooks_dssd_f": "9ba634946ff08cf3",
}

#: Recorded digest of each case's run report (see the module docstring).
REPORT_GOLDEN = {
    "gc_drain_baseline": "bb73c7daed755b8e",
    "gc_drain_dssd_b": "eaa906fc56396c4d",
    "gc_drain_dssd_f": "01129ee8c55367dd",
    "erase_hooks_dssd_f": "91bc51b370f10440",
}

#: Small enough that 1,500 write-leaning requests keep GC busy.
_TINY = FlashGeometry(channels=2, ways=1, dies=1, planes=2,
                      blocks_per_plane=12, pages_per_block=16)

_RELIABILITY = ReliabilityConfig(
    base_rber=1.2e-6, channel_fault_rate=0.05, die_fault_rate=0.05)

_REQUESTS = 1500


def _gc_drain(arch):
    ssd = build_ssd(arch, geometry=_TINY, prefill_fraction=0.92)
    ssd.prefill()
    return ssd


def _erase_hooks():
    """Every sixth block sits one erase below its P/E limit."""
    ssd = build_ssd("dssd_f", geometry=_TINY, prefill_fraction=0.92,
                    reliability=_RELIABILITY)
    ssd.prefill()
    fastforward_wear(ssd, 0.85)
    wear = ssd.reliability.rber_model.wear
    for index, info in sorted(ssd.blocks.blocks.items()):
        if index % 6 == 0:
            ssd.backend.block_state(info.addr).erase_count = \
                wear.limit_for(index) - 1
    return ssd


CASES = {
    "gc_drain_baseline": lambda: _gc_drain("baseline"),
    "gc_drain_dssd_b": lambda: _gc_drain("dssd_b"),
    "gc_drain_dssd_f": lambda: _gc_drain("dssd_f"),
    "erase_hooks_dssd_f": _erase_hooks,
}


def run_case(name):
    """Build one case and run its load until the device drains.

    Returns ``(ssd, result)``: the drained device and its ``RunResult``.
    """
    ssd = CASES[name]()
    result = ssd.run(SyntheticWorkload(pattern="mixed", io_size=4096,
                                       read_fraction=0.2),
                     max_requests=_REQUESTS)
    return ssd, result


def device_digest(ssd):
    """sha256 (16 hex digits) of the drained device's block state."""
    state = {
        "now": ssd.sim.now,
        "blocks": [[index, info.state, info.write_ptr, sorted(info.valid),
                    info.pending]
                   for index, info in sorted(ssd.blocks.blocks.items())],
        "programmed": [[index, sorted(block.programmed), block.erase_count]
                       for index, block in sorted(
                           ssd.backend._blocks.items())],
        "ftl_state": json.dumps(ssd.ftl.state_dict(), sort_keys=True),
        "backend_state": json.dumps(ssd.backend.state_dict(),
                                    sort_keys=True),
    }
    return _digest(state)


def report_digest(result):
    """sha256 (16 hex digits) of the meter-fed numbers in a run report."""
    report = {
        "bus_io_timeline": result.bus_io_timeline,
        "bus_gc_timeline": result.bus_gc_timeline,
        "bandwidth_timeline": result.bandwidth_timeline,
        "utilization": [result.bus_utilization, result.bus_io_utilization,
                        result.bus_gc_utilization, result.dram_utilization,
                        result.mean_plane_utilization,
                        result.fnoc_mean_utilization],
        "io_breakdown": sorted(result.io_breakdown.parts.items()),
        "gc_breakdown": sorted(result.gc_breakdown.parts.items()),
    }
    return _digest(report)


def _digest(value):
    blob = json.dumps(value, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runtime_state_matches_golden(name):
    ssd, _ = run_case(name)
    assert not ssd.ftl.audit()
    observed = device_digest(ssd)
    assert observed == GOLDEN[name], (
        f"run-time digest of {name!r} changed: observed {observed!r}")


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_run_report_matches_golden(name):
    _, result = run_case(name)
    observed = report_digest(result)
    assert observed == REPORT_GOLDEN[name], (
        f"report digest of {name!r} changed: observed {observed!r}")


def test_cases_reach_their_features():
    """GC must erase and relocate, and the hook case must remap and
    retire, or the digests above pin nothing."""
    for name in CASES:
        ssd, _ = run_case(name)
        stats = ssd.gc.stats
        assert ssd.ftl.requests_completed == _REQUESTS, name
        assert stats.blocks_erased > 0 and stats.pages_moved > 0, name
    hooks = run_case("erase_hooks_dssd_f")[0].gc.stats
    assert hooks.blocks_remapped > 0
    assert hooks.blocks_retired > 0
