"""Self-test of the benchmark (slow: several minutes).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

It checks that the default seed reproduces the figure modules' own
points, that every workload-intent guard holds on a seed the benchmark
was not tuned on, and that a slowdown injected into one layer shows up
on that layer's row and on the workload that exercises it, and not on
the workload that bypasses it.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

import run

run.load_program()

import points  # noqa: E402  (needs the program on the path first)
from layers import LAYERS  # noqa: E402
from repro.experiments import fig07_normalized, fig11_tail_latency, \
    fig17_multitenant  # noqa: E402
from repro.noc import FNoC, network  # noqa: E402

#: A seed never used while the benchmark was written.
UNSEEN_SEED = 4099


def _bound(metric: str) -> float:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _point(workload: str, key: str) -> points.Point:
    return next(p for p in points.WORKLOADS[workload] if p.key == key)


def test_default_seed_reproduces_figure_points():
    sample = points.run_point(_point("gc_write", "fig7a:dssd_b"),
                              points.DEFAULT_SEED)
    figure = fig07_normalized.steady_point("dssd_b", quick=True)
    assert sample.counts["io_bw_MBps"] == figure["io_bandwidth"]
    assert sample.counts["gc_move_us"] == figure["gc_move_latency_us"]
    assert sample.counts["io_p99_us"] == figure["p99_us"]

    sample = points.run_point(_point("tenants_nogc",
                                     "fig17:baseline/rr/solo"),
                              points.DEFAULT_SEED)
    figure = fig17_multitenant.tenant_point("baseline", "rr", "solo",
                                            quick=True)
    assert sample.counts["io_bw_MBps"] == figure["device_bandwidth_MBps"]
    assert sample.counts["io_p99_us"] == figure["device_p99_us"]

    sample = points.run_point(_point("trace_mix_gc", "fig11:usr_0/baseline"),
                              points.DEFAULT_SEED)
    figure = fig11_tail_latency.trace_point("usr_0", "baseline", quick=True)
    assert sample.counts["io_p99_us"] == figure["p99_us"]


@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_guards_hold_on_unseen_seed(workload):
    session = run.Session(UNSEEN_SEED)
    run.timed_run(session, points.WORKLOADS[workload], passes=1)
    assert session.failures == []
    assert session.attempted == len(points.WORKLOADS[workload])


# -- injected slowdown ------------------------------------------------------

_WRAPPER = '''
def send(self, packet):
    CALLS[0] += 1
    for _ in range(LOOPS):
        pass
    return (yield from ORIGINAL(self, packet))
'''


class SlowSend:
    """Wrap ``FNoC.send`` so that every call first spins for a while.

    The wrapper is compiled under ``noc/network.py``'s file name, so the
    profiler credits the spin to the ``noc`` layer, as it would a slower
    ``send``.  The spin is a bare loop: it makes no calls, so profiling
    does not inflate it.
    """

    def __init__(self, work_per_call: float):
        self.calls = [0]
        self.loops = _loops_for(work_per_call)
        self._original = FNoC.send

    def __enter__(self):
        namespace = {"ORIGINAL": self._original, "CALLS": self.calls,
                     "LOOPS": self.loops}
        exec(compile(_WRAPPER, network.__file__, "exec"), namespace)
        FNoC.send = namespace["send"]
        return self

    def __exit__(self, *_exc):
        FNoC.send = self._original


def _loops_for(work: float) -> int:
    """Spin loops that take *work* probe units (see ``run.SpeedProbe``)."""
    n = 10_000_000
    with run.SpeedProbe() as probe:
        start = time.perf_counter()
        for _ in range(n):
            pass
        elapsed = time.perf_counter() - start
    return int(n * work / probe.work(start, elapsed))


def _one_pass(workload: str) -> float:
    """Probe-relative time of one pass, as ``wall_s`` counts it."""
    session = run.Session(points.DEFAULT_SEED)
    samples = run.timed_run(session, points.WORKLOADS[workload], passes=1)
    assert session.failures == []
    return sum(runs[0][0] for runs in samples.values())


def _paired_ratio(workload: str, slow: SlowSend, pairs: int) -> float:
    """Median injected/plain wall ratio over alternating pass pairs."""
    ratios = []
    for _ in range(pairs):
        plain = _one_pass(workload)
        with slow:
            injected = _one_pass(workload)
        ratios.append(injected / plain)
    return statistics.median(ratios)


def test_injected_noc_slowdown_is_flagged_on_noc_and_gc_write_only():
    # Size the injection at 20% of gc_write's wall time, spread over the
    # fNoC packets the workload sends.
    wall = _one_pass("gc_write")
    _session, plain = run.measure("gc_write", points.DEFAULT_SEED, 0, True)
    slow = SlowSend(0.2 * wall / plain["noc.packets"][0])

    assert _paired_ratio("gc_write", slow, pairs=3) > 1.1
    with slow:
        _session, injected = run.measure("gc_write", points.DEFAULT_SEED, 0,
                                         True)
    rise = {layer: injected[f"{layer}.share"][0] - plain[f"{layer}.share"][0]
            for layer in LAYERS}
    assert max(rise, key=rise.get) == "noc"
    assert injected["noc.share"][0] > 10 * plain["noc.share"][0]

    slow.calls[0] = 0
    assert _paired_ratio("tenants_nogc", slow, pairs=1) < 1 + _bound("wall_s")
    assert slow.calls[0] == 0
