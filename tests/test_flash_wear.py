"""Unit tests for the wear / process-variation model."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigError
from repro.flash import PAPER_PE_MEAN, PAPER_PE_SIGMA, WearModel


def test_limits_are_cached_and_deterministic():
    model = WearModel(seed=42)
    first = model.limit_for(10)
    assert model.limit_for(10) == first
    again = WearModel(seed=42)
    # Same seed, same order of queries -> same limits.
    assert again.limit_for(10) == model.limit_for(10)


def test_limits_distribution_is_plausible():
    model = WearModel(seed=3)
    limits = [model.limit_for(i) for i in range(2000)]
    mean = sum(limits) / len(limits)
    assert abs(mean - PAPER_PE_MEAN) < 3 * PAPER_PE_SIGMA / (2000 ** 0.5) * 4
    assert min(limits) >= 1


def test_zero_sigma_gives_constant_limits():
    model = WearModel(mean=100.0, sigma=0.0, seed=1)
    assert {model.limit_for(i) for i in range(50)} == {100}


def test_is_dead_threshold():
    model = WearModel(mean=10.0, sigma=0.0)
    assert not model.is_dead(0, 9)
    assert model.is_dead(0, 10)
    assert model.is_dead(0, 11)


def test_rber_monotone_in_wear():
    model = WearModel(mean=100.0, sigma=0.0)
    values = [model.rber(count, 0) for count in (0, 25, 50, 75, 100)]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_limits_array_matches_scalar_statistics():
    model = WearModel(seed=5)
    arr = model.limits_array(5000)
    assert arr.shape == (5000,)
    assert arr.min() >= 1
    assert abs(arr.mean() - PAPER_PE_MEAN) < 100.0
    assert abs(arr.std() - PAPER_PE_SIGMA) < 100.0


def test_limits_array_seeded_reproducible():
    model = WearModel(seed=9)
    a = model.limits_array(100, seed=123)
    b = model.limits_array(100, seed=123)
    assert (a == b).all()


def test_reset_restores_stream():
    model = WearModel(seed=11)
    sequence = [model.limit_for(i) for i in range(10)]
    model.reset()
    assert [model.limit_for(i) for i in range(10)] == sequence


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        WearModel(mean=0.0)
    with pytest.raises(ConfigError):
        WearModel(sigma=-1.0)
    with pytest.raises(ConfigError):
        WearModel(min_limit=0)


def test_simulating_a_device_never_imports_numpy():
    """Only ``limits_array`` (and the superblock endurance studies) need
    NumPy; building, pre-conditioning and running a device -- GC, wear
    read-retries and the reliability stack included -- must not load
    it."""
    code = textwrap.dedent("""
        import sys
        from repro.core import build_ssd, fastforward_wear, sim_geometry
        from repro.reliability import ReliabilityConfig
        from repro.workloads import SyntheticWorkload

        geometry = sim_geometry(channels=2, ways=1, planes=2,
                                blocks_per_plane=12, pages_per_block=16)
        ssd = build_ssd("dssd_f", geometry=geometry, prefill_fraction=0.92,
                        read_retry=True,
                        reliability=ReliabilityConfig(base_rber=1e-6))
        ssd.prefill()
        fastforward_wear(ssd, 0.5)
        ssd.run(SyntheticWorkload(pattern="mixed", io_size=4096,
                                  read_fraction=0.3), max_requests=400)
        assert ssd.gc.stats.blocks_erased > 0
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] == "numpy"))
    """)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
