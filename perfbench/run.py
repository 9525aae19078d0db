"""Host-side benchmark of the dSSD simulator: figure wall time per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gc_write --seed 1 --seconds 20 --trace 0

Each workload is a pinned list of figure points (see ``points.py`` and
``README.md``).  ``--trace 0`` makes about ``--seconds`` seconds' worth
of full passes over the points (a fixed count, at least two), times
each point relative to speed probes taken while it runs, and reports
the end-to-end metrics from each point's median.  ``--trace 1`` runs
one plain pass for the per-layer counts, then one pass under
``cProfile`` for each layer's share of self time.  Every point is
checked after every run: it must not raise, its page mapping must be
consistent, its simulated fingerprint must repeat exactly and its
workload-intent guards must hold.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

#: ``make_msr_workload`` seeds its trace synthesizer with ``hash()`` of
#: the trace name, and Python randomizes string hashes per process.  A
#: fixed hash seed makes one ``--seed`` give one trace in every process.
HASH_SEED = "0"


def pin_hash_seed(argv: List[str]) -> None:
    """Re-execute this script with :data:`HASH_SEED` unless it is set."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/repro; run from the "
                 "root of a full checkout")
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


class Session:
    """Runs points one at a time, checking each and counting failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: List[str] = []
        #: First fingerprint seen per point key in this process.
        self.fingerprints: Dict[str, dict] = {}

    def run(self, point, profiler=None):
        """One checked run of *point*; ``None`` when it failed."""
        from points import guard_violations, run_point

        self.attempted += 1
        # Free the previous point's device first, so neither its memory
        # nor collecting it lands inside this point's timing.
        gc.collect()
        try:
            sample = run_point(point, self.seed, profiler=profiler)
        except Exception:  # a failed point is counted, not fatal
            self._fail(f"{point.key} raised:\n{traceback.format_exc()}")
            return None
        problems = guard_violations(point, sample)
        first = self.fingerprints.setdefault(point.key, sample.fingerprint)
        if sample.fingerprint != first:
            problems.append(f"{point.key} fingerprint {sample.fingerprint} "
                            f"differs from its first run {first}")
        if problems:
            self._fail("; ".join(problems))
            return None
        return sample

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr, flush=True)


# -- end-to-end (untraced) -------------------------------------------------

#: Full passes a timed run makes at least, so every point's time is a
#: median of two or more.
MIN_PASSES = 2


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill *seconds* at the workload's nominal pass time.

    The count depends on ``--seconds`` only, never on how fast the host
    runs today, so every run takes the median of the same number of runs.
    """
    from points import PASS_SECONDS

    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


#: Seconds between two speed probes while a point runs.
PROBE_INTERVAL = 0.01
#: Time of one :func:`probe_loop` inside a running point on the host
#: this benchmark was tuned on (2-core shared x86-64 VM, Python 3.11).
#: End-to-end times are in seconds at that host speed.
PROBE_SECONDS = 0.0002


class _Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self, k: int) -> int:
        self.value = (self.value + k) & 0xFFFF
        return self.value


_PROBE_TABLE = {i: i for i in range(512)}
_PROBE_HEAP = list(range(128))
_PROBE_COUNTER = _Counter()


def probe_loop(n: int = 400) -> None:
    """A fixed interpreter loop of dict, heap and method work.

    It touches no ``repro`` code, so a change to the program never
    moves it, and it allocates no containers, so it adds next to
    nothing to the garbage collector's allocation count.
    """
    acc = 0
    table, heap, counter = _PROBE_TABLE, _PROBE_HEAP, _PROBE_COUNTER
    for i in range(n):
        k = (i * 37) & 511
        acc += table.get(k, 0)
        table[k] = acc & 255
        heapq.heapreplace(heap, (acc + i) & 1023)
        acc = counter.bump(acc)


class SpeedProbe:
    """Samples how fast the host runs while a point runs.

    The host is shared, and its speed drifts by a third within seconds.
    An interval timer interrupts the program every
    :data:`PROBE_INTERVAL` seconds to time :func:`probe_loop`, so the
    probes see the speed the program sees at that moment.
    """

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        probe_loop()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work(self, start: float, seconds: float) -> float:
        """Program time in ``[start, start + seconds)`` in probe units."""
        inside = [d for s, d in zip(self.starts, self.seconds)
                  if start <= s < start + seconds]
        if not inside:
            return seconds / PROBE_SECONDS
        return (seconds - sum(inside)) / statistics.fmean(inside)


def timed_run(session: Session, points,
              passes: int) -> Dict[str, List[Tuple[float, float]]]:
    """Run *passes* full passes over *points* under a :class:`SpeedProbe`.

    Returns, per point key, ``(total, setup)`` of every good run as
    program time over the mean probe time of that run: the program's
    cost with most of the host's drift taken out.
    """
    samples: Dict[str, list] = {point.key: [] for point in points}
    for _ in range(passes):
        for point in points:
            with SpeedProbe() as probe:
                sample = session.run(point)
            if sample is not None:
                samples[point.key].append(
                    (probe.work(sample.start, sample.total_s),
                     probe.work(sample.start, sample.setup_s)))
    return samples


def end_to_end(
        samples: Dict[str, List[Tuple[float, float]]],
) -> Dict[str, Tuple[float, str]]:
    """Figure wall time from per-point medians, plus set-up and memory.

    Probe-relative times (see :func:`timed_run`) are scaled by
    :data:`PROBE_SECONDS` back to seconds.  Each point's median over
    the passes is summed.
    """
    runs = [r for r in samples.values() if r]
    totals = [statistics.median(total for total, _setup in r) for r in runs]
    setups = [statistics.median(setup for _total, setup in r) for r in runs]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(totals) * PROBE_SECONDS, "s"),
        "setup_s": (sum(setups) * PROBE_SECONDS, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


# -- per layer (one plain pass, one profiled pass) --------------------------

def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(session: Session, points) -> Dict[str, Tuple[float, str]]:
    """Counts from a plain pass; layer shares from a profiled pass."""
    from layers import CALL_LAYERS, attribute

    plain = [(p, session.run(p)) for p in points]
    profiler = cProfile.Profile()
    traced = [session.run(p, profiler=profiler) for p in points]
    ok = [(p, s) for p, s in plain if s is not None]
    counts = [s.counts for _p, s in ok]

    def total(name: str) -> float:
        return sum(c[name] for c in counts)

    plain_wall = sum(s.total_s for _p, s in ok)
    traced_wall = sum(s.total_s for s in traced if s is not None)
    sim_s = sum(s.total_s - s.setup_s for _p, s in ok)
    shares, calls = attribute(profiler)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, share in shares.items():
        metrics[f"{layer}.share"] = (share, "fraction")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics.update({
        "point_max_s": (max((s.total_s for _p, s in ok), default=0.0), "s"),
        "kernel.events": (total("events"), "count"),
        "kernel.events_per_s": (total("events") / sim_s if sim_s else 0.0,
                                "1/s"),
        "noc.packets": (total("fnoc_packets"), "count"),
        "noc.channel_util": (_mean([s.counts["fnoc_util"] for p, s in ok
                                    if p.arch == "dssd_f"]), "fraction"),
        "ftl.requests": (total("requests"), "count"),
        "gc.pages_moved": (total("gc_pages"), "count"),
        "gc.blocks_erased": (total("gc_blocks"), "count"),
        "gc.move_us": (_mean([c["gc_move_us"] for c in counts
                              if c["gc_pages"]]), "us"),
        "core.copybacks": (total("copybacks"), "count"),
        "controller.bus_util": (_mean([c["bus_util"] for c in counts]),
                                "fraction"),
        "controller.bus_gc_util": (_mean([c["bus_gc_util"] for c in counts]),
                                   "fraction"),
        "controller.dram_util": (_mean([c["dram_util"] for c in counts]),
                                 "fraction"),
        "flash.plane_util": (_mean([c["plane_util"] for c in counts]),
                             "fraction"),
        "host.dropped": (total("host_dropped"), "count"),
        "host.sq_wait_us": (_mean([s.counts["host_sq_wait_us"]
                                   for p, s in ok if p.tenants]), "us"),
        "setup.build_s": (sum(s.build_s for _p, s in ok), "s"),
        "setup.prefill_s": (sum(s.prefill_s for _p, s in ok), "s"),
        "io.bw_MBps": (_mean([c["io_bw_MBps"] for c in counts]), "MB/s"),
        "io.p99_us": (_mean([c["io_p99_us"] for c in counts]), "us"),
        "io.read_p99_us": (_mean([c["read_p99_us"] for c in counts
                                  if c["reads"]]), "us"),
        "trace.overhead": (traced_wall / plain_wall if plain_wall else 0.0,
                           "ratio"),
    })
    return metrics


# -- fingerprint report -----------------------------------------------------

def _load_recorded() -> Dict[str, dict]:
    try:
        with open(FINGERPRINTS) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def report_fingerprints(session: Session, points, seed: int) -> None:
    """Print each point's fingerprint beside the recorded default-seed one.

    A difference is reported, never counted as a failure: a change that
    changes the model changes the fingerprints on purpose.
    """
    from points import DEFAULT_SEED

    recorded = _load_recorded() if seed == DEFAULT_SEED else {}
    for point in points:
        got = session.fingerprints.get(point.key)
        if got is None:
            continue
        text = " ".join(f"{k}={v!r}" for k, v in got.items())
        want = recorded.get(point.key)
        if seed != DEFAULT_SEED:
            verdict = f"no record for seed {seed}"
        elif want is None:
            verdict = "no record"
        elif want == got:
            verdict = "identical to record"
        else:
            diff = ", ".join(f"{k} {want.get(k)!r}->{v!r}"
                             for k, v in got.items() if want.get(k) != v)
            verdict = f"DIFFERS from record: {diff}"
        print(f"fingerprint {point.key}: {text} [{verdict}]")


def record_fingerprints(session: Session) -> None:
    """Merge this run's fingerprints into ``fingerprints.json``."""
    recorded = _load_recorded()
    recorded.update(session.fingerprints)
    with open(FINGERPRINTS, "w") as handle:
        json.dump(dict(sorted(recorded.items())), handle, indent=1)
        handle.write("\n")


# -- command line -------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Tuple[Session, Dict[str, Tuple[float, str]]]:
    """Run *workload* and return its session and ``{name: (value, unit)}``."""
    from points import WORKLOADS

    points = WORKLOADS[workload]
    session = Session(seed)
    if trace:
        metrics = per_layer(session, points)
    else:
        samples = timed_run(session, points, pass_count(workload, seconds))
        metrics = end_to_end(samples)
    return session, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the figures' own seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints as the record "
                             "(default seed only)")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    pin_hash_seed(argv)
    load_program()
    from points import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.record and seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")

    session, metrics = measure(args.workload, seed, args.seconds,
                               bool(args.trace))
    report_fingerprints(session, WORKLOADS[args.workload], seed)
    failed = len(session.failures)
    if args.record and not failed:
        record_fingerprints(session)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
