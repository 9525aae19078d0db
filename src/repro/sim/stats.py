"""Measurement utilities: latency recorders, time-binned series, meters.

Everything the experiment harness reports -- bandwidth timelines,
utilization, tail latency -- is collected through these classes so that
model code stays free of reporting concerns.  The same primitives back
the parallel runner's own metrics (:mod:`repro.experiments.runner`):
:class:`LatencyStats` records per-point wall times and :class:`Counter`
tallies cache hits/misses, so simulated and harness measurements share
one reporting path.

:class:`LatencyStats` maintains streaming O(1) aggregates (count, sum,
min and max) on every add.  The raw sample list that backs *exact* percentiles is optional per
recorder: high-volume recorders that never report a percentile (per-flit
or per-channel meters) construct with ``keep_samples=False`` and stay
O(1) in memory no matter how many samples land.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SamplesUnavailableError

__all__ = ["LatencyStats", "TimeBins", "Counter", "percentile"]

_INF = float("inf")


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an **ascending-sorted** sequence.

    Uses the inclusive linear-interpolation definition (rank
    ``fraction * (n - 1)``, numpy's default ``"linear"`` method), so
    ``fraction=0.0`` / ``1.0`` return the smallest / largest sample
    exactly.  ``fraction`` is in ``[0, 1]`` -- pass 0.99 for the
    paper's 99 % tail.  Raises :class:`ValueError` on an empty
    sequence or an out-of-range fraction; the input order is **not**
    verified, callers must sort first (:meth:`LatencyStats.pct` does).
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * weight


class LatencyStats:
    """Accumulates samples and reports summary statistics.

    Units are the caller's: simulated request latencies arrive in
    microseconds, the experiment runner's per-point wall times in
    seconds.  Aggregates (:attr:`mean`, :attr:`max`, :attr:`min`,
    :meth:`pct`) return ``0.0`` on an empty recorder rather than
    raising, so report tables render before any sample lands.

    ``keep_samples=False`` drops the raw sample list: every aggregate
    (count/sum/mean/min/max) still streams in O(1), but exact
    percentiles are unavailable -- :meth:`pct` raises and
    :meth:`summary` reports the tails as ``0.0``.  The sorted view
    backing :meth:`pct` is cached and invalidated on every
    :meth:`add`/:meth:`extend`/:meth:`merge`.
    """

    __slots__ = ("name", "_samples", "_sorted", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str = "", keep_samples: bool = True):
        self.name = name
        self._samples: Optional[List[float]] = [] if keep_samples else None
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._min = _INF
        self._max = -_INF

    @property
    def keep_samples(self) -> bool:
        """Whether the raw sample list (exact percentiles) is retained."""
        return self._samples is not None

    def add(self, value: float) -> None:
        """Record one latency sample (microseconds)."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        samples = self._samples
        if samples is not None:
            samples.append(value)
            self._sorted = None

    def extend(self, values: Sequence[float]) -> None:
        """Record many samples at once (single pass over the input).

        The input is materialized first, so one-shot iterables
        (generators) are safe: every aggregate and the retained sample
        list observe the same values.
        """
        values = list(values)
        if not values:
            return
        self._count += len(values)
        self._sum += sum(values)
        low = min(values)
        high = max(values)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        if self._samples is not None:
            self._samples.extend(values)
            self._sorted = None

    def merge(self, other: "LatencyStats") -> None:
        """Fold *other*'s samples into this recorder (it keeps its own).

        Safe against ``merge(self)``: the recorder is doubled rather
        than looping over a list that grows while it is read.  Merging a
        sample-free recorder into a sample-keeping one degrades this
        recorder to sample-free (the union's percentiles would silently
        lie otherwise).
        """
        if other is self:
            other = _snapshot(self)
        if other._count == 0:
            return
        self._count += other._count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        if self._samples is not None:
            if other._samples is None:
                self._samples = None
                self._sorted = None
            else:
                self._samples.extend(other._samples)
                self._sorted = None

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._count else 0.0

    def pct(self, fraction: float) -> float:
        """Percentile of the samples, e.g. ``pct(0.99)`` for p99.

        *fraction* must be in ``[0, 1]`` (ValueError otherwise), even
        on an empty recorder -- an out-of-range tail request is a
        caller bug regardless of whether samples have landed yet.
        Raises :class:`~repro.errors.SamplesUnavailableError` (a
        ``ValueError`` subclass) on a ``keep_samples=False`` recorder,
        where exact percentiles do not exist -- note a recorder can
        *become* sample-free by merging a sample-free peer in.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self._count == 0:
            return 0.0
        if self._samples is None:
            raise SamplesUnavailableError(
                f"recorder {self.name!r} keeps no samples; exact "
                "percentiles are unavailable (keep_samples=False)"
            )
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile(self._sorted, fraction)

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.pct(0.50)

    @property
    def p99(self) -> float:
        """99 % tail latency (the paper's headline tail metric)."""
        return self.pct(0.99)

    @property
    def p999(self) -> float:
        """99.9 % tail latency."""
        return self.pct(0.999)

    def samples(self) -> List[float]:
        """Copy of the raw samples (empty when ``keep_samples=False``)."""
        return list(self._samples) if self._samples is not None else []

    def state_dict(self) -> Dict[str, object]:
        """JSON-able checkpoint of every aggregate plus the samples.

        Round-trips exactly through :meth:`load_state` /
        :meth:`from_state`: count, sum, min/max, and (when kept) the raw
        sample list, so a restored recorder reports byte-identical
        means and percentiles.  Infinities
        (the empty recorder's min/max sentinels) are encoded as the
        count-0 state and re-derived on load, keeping the dict strict
        JSON.
        """
        state: Dict[str, object] = {
            "name": self.name,
            "count": self._count,
            "sum": self._sum,
        }
        if self._count:
            state["min"] = self._min
            state["max"] = self._max
        if self._samples is not None:
            state["samples"] = list(self._samples)
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Overwrite this recorder with a :meth:`state_dict` checkpoint."""
        self.name = state["name"]
        self._count = int(state["count"])
        self._sum = float(state["sum"])
        self._min = float(state["min"]) if self._count else _INF
        self._max = float(state["max"]) if self._count else -_INF
        samples = state.get("samples")
        self._samples = [float(v) for v in samples] \
            if samples is not None else None
        self._sorted = None

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LatencyStats":
        """A fresh recorder rebuilt from a :meth:`state_dict` checkpoint."""
        stats = cls()
        stats.load_state(state)
        return stats

    def summary(self) -> Dict[str, float]:
        """Dict of the headline statistics for report tables.

        Sample-free recorders report their streaming aggregates with the
        percentile columns pinned to ``0.0``.
        """
        has_pct = self._samples is not None
        return {
            "count": float(self._count),
            "mean": self.mean,
            "p50": self.p50 if has_pct else 0.0,
            "p99": self.p99 if has_pct else 0.0,
            "p999": self.p999 if has_pct else 0.0,
            "max": self.max,
        }


def _snapshot(stats: LatencyStats) -> LatencyStats:
    """A frozen copy of *stats*' aggregates (used by self-merge)."""
    copy = LatencyStats(stats.name, keep_samples=stats.keep_samples)
    copy._count = stats._count
    copy._sum = stats._sum
    copy._min = stats._min
    copy._max = stats._max
    if stats._samples is not None:
        copy._samples = list(stats._samples)
    return copy


class TimeBins:
    """Fixed-width time bins accumulating amounts (bytes, counts).

    Used to reproduce the paper's per-millisecond I/O bandwidth and
    system-bus bandwidth timelines (Fig 2, Fig 7(b)).  ``width`` is the
    bin width in microseconds (default 1000 us = 1 ms, matching the
    paper).
    """

    __slots__ = ("width", "_bins")

    def __init__(self, width: float = 1000.0):
        if width <= 0:
            raise ValueError(f"bin width must be positive, got {width}")
        self.width = width
        self._bins: Dict[int, float] = {}

    def add(self, time: float, amount: float) -> None:
        """Accumulate *amount* into the bin containing *time*."""
        index = int(time // self.width)
        bins = self._bins
        bins[index] = bins.get(index, 0.0) + amount

    def series(self) -> Tuple[List[float], List[float]]:
        """``(bin_start_times, amounts)`` with gaps filled with zero."""
        if not self._bins:
            return [], []
        first = min(self._bins)
        last = max(self._bins)
        times = [index * self.width for index in range(first, last + 1)]
        values = [self._bins.get(index, 0.0) for index in range(first, last + 1)]
        return times, values

    def total(self) -> float:
        """Sum over all bins."""
        return sum(self._bins.values())

    def state_dict(self) -> Dict[str, object]:
        """JSON-able checkpoint: bin width plus ``[index, amount]`` pairs.

        Integer bin indices are emitted as explicit pairs (not dict
        keys) because JSON would silently stringify them.
        """
        return {
            "width": self.width,
            "bins": [[index, amount]
                     for index, amount in sorted(self._bins.items())],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Overwrite these bins with a :meth:`state_dict` checkpoint."""
        self.width = float(state["width"])
        self._bins = {int(index): float(amount)
                      for index, amount in state["bins"]}


class Counter:
    """A named bag of monotonically increasing counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def incr(self, key: str, amount: float = 1.0) -> None:
        """Increase counter *key* by *amount*."""
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def get(self, key: str) -> float:
        """Current value of counter *key* (0.0 if never incremented)."""
        return self._counts.get(key, 0.0)

    def merge(self, other: "Counter") -> None:
        """Add every counter of *other* into this bag."""
        for key, amount in other._counts.items():
            self.incr(key, amount)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def state_dict(self) -> Dict[str, float]:
        """JSON-able checkpoint (same shape as :meth:`as_dict`)."""
        return dict(self._counts)

    def load_state(self, state: Dict[str, float]) -> None:
        """Overwrite every counter with a :meth:`state_dict` checkpoint."""
        self._counts = {key: float(value) for key, value in state.items()}
