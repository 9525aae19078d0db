"""Tests for workload generators: synthetic, trace, MSR-shaped."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigError
from repro.ftl import READ, WRITE
from repro.workloads import (
    MSR_PROFILES,
    READ_INTENSIVE,
    WRITE_INTENSIVE,
    SyntheticWorkload,
    TraceRecord,
    TraceWorkload,
    make_msr_workload,
    parse_csv_trace,
    synthesize_trace,
)


# ---------------------------------------------------------------- synthetic


def test_seq_write_monotonic_lpns():
    wl = SyntheticWorkload(pattern="seq_write", io_size=8192)
    wl.bind(lpn_space=1000, page_size=4096, seed=1)
    reqs = [wl.next_request() for _ in range(5)]
    assert all(r.op == WRITE for r in reqs)
    assert [r.lpn for r in reqs] == [0, 2, 4, 6, 8]
    assert all(r.n_pages == 2 for r in reqs)


def test_seq_wraps_within_space():
    wl = SyntheticWorkload(pattern="seq_read", io_size=4096)
    wl.bind(lpn_space=3, page_size=4096, seed=1)
    lpns = [wl.next_request().lpn for _ in range(7)]
    assert max(lpns) < 3
    assert lpns[:3] == [0, 1, 2]


def test_rand_write_within_space():
    wl = SyntheticWorkload(pattern="rand_write", io_size=16384)
    wl.bind(lpn_space=100, page_size=4096, seed=7)
    for _ in range(200):
        req = wl.next_request()
        assert 0 <= req.lpn <= 100 - 4
        assert req.n_pages == 4


def test_mixed_read_fraction_statistics():
    wl = SyntheticWorkload(pattern="mixed", read_fraction=0.8)
    wl.bind(lpn_space=1000, page_size=4096, seed=3)
    ops = [wl.next_request().op for _ in range(1000)]
    read_share = ops.count(READ) / len(ops)
    assert 0.7 < read_share < 0.9


def test_dram_hit_fraction():
    wl = SyntheticWorkload(pattern="rand_read", dram_hit_fraction=1.0)
    wl.bind(lpn_space=100, page_size=4096, seed=1)
    assert all(wl.next_request().dram_hit for _ in range(10))


def test_limit_exhausts():
    wl = SyntheticWorkload(pattern="seq_write", limit=3)
    wl.bind(lpn_space=100, page_size=4096, seed=1)
    assert [wl.next_request() is not None for _ in range(3)] == [True] * 3
    assert wl.next_request() is None


def test_workload_requires_bind():
    wl = SyntheticWorkload()
    with pytest.raises(ConfigError):
        wl.next_request()


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        SyntheticWorkload(pattern="zigzag")
    with pytest.raises(ConfigError):
        SyntheticWorkload(io_size=0)
    with pytest.raises(ConfigError):
        SyntheticWorkload(read_fraction=1.5)
    wl = SyntheticWorkload()
    with pytest.raises(ConfigError):
        wl.bind(lpn_space=0, page_size=4096, seed=1)


def test_reproducible_with_same_seed():
    def stream(seed):
        wl = SyntheticWorkload(pattern="rand_write")
        wl.bind(lpn_space=500, page_size=4096, seed=seed)
        return [wl.next_request().lpn for _ in range(50)]

    assert stream(11) == stream(11)
    assert stream(11) != stream(12)


# ---------------------------------------------------------------- traces


def test_parse_csv_trace():
    lines = [
        "# comment",
        "",
        "0.0,R,0,4096",
        "1.5,write,8192,8192",
        "2.0,W,4095,2",
    ]
    records = parse_csv_trace(lines, page_size=4096)
    assert records[0] == TraceRecord(READ, 0, 1, 0.0)
    assert records[1] == TraceRecord(WRITE, 2, 2, 1.5)
    assert records[2].lpn == 0 and records[2].n_pages == 2  # straddles


def test_parse_csv_trace_errors():
    with pytest.raises(ConfigError):
        parse_csv_trace(["1,X,0,100"], page_size=4096)
    with pytest.raises(ConfigError):
        parse_csv_trace(["1,R,0"], page_size=4096)
    with pytest.raises(ConfigError):
        parse_csv_trace(["1,R,0,0"], page_size=4096)


def test_trace_workload_replay_and_repeat():
    records = [TraceRecord(WRITE, 0, 1), TraceRecord(READ, 5, 2)]
    wl = TraceWorkload(records, repeat=False)
    wl.bind(lpn_space=100, page_size=4096, seed=1)
    assert wl.next_request().op == WRITE
    assert wl.next_request().op == READ
    assert wl.next_request() is None

    wl = TraceWorkload(records, repeat=True)
    wl.bind(lpn_space=100, page_size=4096, seed=1)
    ops = [wl.next_request().op for _ in range(6)]
    assert ops == [WRITE, READ] * 3


def test_trace_lpns_wrapped_into_space():
    records = [TraceRecord(WRITE, 10_000, 4)]
    wl = TraceWorkload(records)
    wl.bind(lpn_space=64, page_size=4096, seed=1)
    req = wl.next_request()
    assert 0 <= req.lpn <= 64 - 4


def test_trace_read_fraction():
    records = [TraceRecord(READ, 0, 1)] * 3 + [TraceRecord(WRITE, 0, 1)]
    wl = TraceWorkload(records)
    assert wl.read_fraction == pytest.approx(0.75)


def test_empty_trace_rejected():
    with pytest.raises(ConfigError):
        TraceWorkload([])


# ---------------------------------------------------------------- MSR


def test_msr_profiles_cover_paper_traces():
    for name in ("prn_0", "usr_2", "hm_1", "src1_2"):
        assert name in MSR_PROFILES


def test_msr_read_write_split_is_partition():
    assert set(READ_INTENSIVE) | set(WRITE_INTENSIVE) == set(MSR_PROFILES)
    assert not set(READ_INTENSIVE) & set(WRITE_INTENSIVE)
    assert "hm_1" in READ_INTENSIVE
    assert "prn_0" in WRITE_INTENSIVE


def test_synthesized_trace_matches_profile_statistics():
    profile = MSR_PROFILES["usr_2"]
    records = synthesize_trace(profile, 4000, seed=5)
    reads = sum(1 for r in records if r.op == READ)
    assert abs(reads / len(records) - profile.read_fraction) < 0.05
    sizes = {r.n_pages for r in records}
    assert sizes <= {s for s, _w in profile.size_mix}


def test_synthesized_trace_reproducible():
    profile = MSR_PROFILES["prn_0"]
    a = synthesize_trace(profile, 100, seed=9)
    b = synthesize_trace(profile, 100, seed=9)
    assert a == b


#: Digest of the usr_0 trace (2,000 requests, seed 1): the trace earlier
#: releases drew under ``PYTHONHASHSEED=0``, which perfbench measures.
USR_0_DIGEST = "87266e6ca3d1e9d1"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_synthesized_trace_is_independent_of_the_process(hash_seed):
    code = textwrap.dedent("""
        import hashlib, json
        from repro.workloads import MSR_PROFILES, synthesize_trace
        records = synthesize_trace(MSR_PROFILES["usr_0"], 2000, seed=1)
        rows = [[r.op, r.lpn, r.n_pages, r.timestamp] for r in records]
        print(hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16])
    """)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == USR_0_DIGEST


def test_make_msr_workload():
    wl = make_msr_workload("hm_1", n_requests=200, seed=2)
    wl.bind(lpn_space=10_000, page_size=4096, seed=2)
    req = wl.next_request()
    assert req is not None
    with pytest.raises(ConfigError):
        make_msr_workload("not_a_trace")
