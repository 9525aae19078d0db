"""Unit and property tests for the stats utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import LatencyStats, TimeBins, percentile
from repro.sim.stats import Counter


# ---------------------------------------------------------------- percentile


def test_percentile_basics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.25) == 2.0


def test_percentile_interpolates():
    values = [0.0, 10.0]
    assert percentile(values, 0.75) == pytest.approx(7.5)


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        percentile([1.0], -0.01)


def test_latency_stats_pct_validates_fraction():
    stats = LatencyStats()
    stats.add(1.0)
    with pytest.raises(ValueError):
        stats.pct(1.5)
    with pytest.raises(ValueError):
        stats.pct(-0.2)


def test_latency_stats_pct_validates_fraction_when_empty():
    """Out-of-range fractions are rejected even before any sample."""
    stats = LatencyStats()
    with pytest.raises(ValueError):
        stats.pct(99.0)
    assert stats.pct(0.99) == 0.0


def test_latency_stats_pct_without_samples_raises_named_error():
    """A sample-free recorder refuses exact percentiles with the named
    exception (still a ValueError subclass for old callers)."""
    from repro.errors import SamplesUnavailableError

    stats = LatencyStats("noc", keep_samples=False)
    stats.add(1.0)
    with pytest.raises(SamplesUnavailableError, match="noc.*no samples"):
        stats.pct(0.5)
    assert issubclass(SamplesUnavailableError, ValueError)


def test_latency_stats_pct_with_samples_still_works():
    stats = LatencyStats("io", keep_samples=True)
    stats.extend([1.0, 2.0, 3.0])
    assert stats.pct(0.5) == 2.0


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_bounded_by_extremes(values, fraction):
    values.sort()
    result = percentile(values, fraction)
    assert values[0] <= result <= values[-1]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100))
def test_percentile_monotone_in_fraction(values):
    values.sort()
    fractions = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    results = [percentile(values, f) for f in fractions]
    slack = 1e-9 * max(values[-1], 1.0)
    assert all(b >= a - slack for a, b in zip(results, results[1:]))


# ---------------------------------------------------------------- LatencyStats


def test_latency_stats_summary():
    stats = LatencyStats("io")
    stats.extend([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.min == 1.0
    assert stats.max == 4.0
    assert stats.p50 == pytest.approx(2.5)
    summary = stats.summary()
    assert summary["count"] == 4.0
    assert summary["p99"] == stats.pct(0.99)


def test_latency_stats_empty_is_zero():
    stats = LatencyStats()
    assert stats.mean == 0.0
    assert stats.p99 == 0.0
    assert stats.max == 0.0


def test_latency_stats_cache_invalidation():
    stats = LatencyStats()
    stats.add(10.0)
    assert stats.p99 == 10.0
    stats.add(100.0)
    assert stats.p99 > 10.0


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
def test_latency_p99_at_least_median(values):
    stats = LatencyStats()
    stats.extend(values)
    assert stats.p99 >= stats.p50


# ---------------------------------------------------------------- TimeBins


def test_timebins_add_and_series():
    bins = TimeBins(width=10.0)
    bins.add(5.0, 100.0)
    bins.add(12.0, 50.0)
    bins.add(14.0, 25.0)
    times, values = bins.series()
    assert times == [0.0, 10.0]
    assert values == [100.0, 75.0]
    assert bins.total() == 175.0


def test_timebins_errors():
    with pytest.raises(ValueError):
        TimeBins(width=0.0)


def test_timebins_empty_series():
    bins = TimeBins(width=10.0)
    assert bins.series() == ([], [])


# ---------------------------------------------------------------- Counter


def test_counter_incr_and_get():
    counter = Counter()
    counter.incr("gc")
    counter.incr("gc", 2.0)
    assert counter.get("gc") == 3.0
    assert counter.get("absent") == 0.0
    assert counter.as_dict() == {"gc": 3.0}
