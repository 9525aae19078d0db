"""MSR-Cambridge-shaped synthetic traces.

The paper evaluates on MSR Cambridge block traces (via TraceTracker
[23]): prn_0, usr_2, hm_1, src1_2, and so on.  Those trace files are
not redistributable, so this module synthesizes request streams whose
first-order statistics -- read/write mix, request-size distribution,
sequentiality, and working-set footprint -- match the published
characterizations of each trace.  The figures only use the traces as
read/write-mix and burstiness stimuli, so these synthetic stand-ins
exercise the identical code paths (see DESIGN.md, substitutions).

Profiles are approximate by construction; absolute latencies will not
match the originals, but the read-heavy / write-heavy contrast the
paper plots is preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..ftl import READ, WRITE
from .traces import TraceRecord, TraceWorkload

__all__ = ["TraceProfile", "MSR_PROFILES", "synthesize_trace",
           "make_msr_workload", "READ_INTENSIVE", "WRITE_INTENSIVE"]


@dataclass(frozen=True)
class TraceProfile:
    """First-order statistics of one MSR volume."""

    name: str
    read_fraction: float
    #: (size_in_4k_pages, weight) choices.
    size_mix: Tuple[Tuple[int, float], ...]
    sequential_fraction: float
    working_set_fraction: float
    #: Fixed 16-bit salt mixed into the synthesis seed, so a profile
    #: draws the same trace in every process.
    salt: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError(f"{self.name}: bad read_fraction")
        if not self.size_mix:
            raise ConfigError(f"{self.name}: empty size mix")

    @property
    def is_read_intensive(self) -> bool:
        """Paper Fig 15(b) split: read- versus write-intensive."""
        return self.read_fraction >= 0.5


def _profile(name, read, sizes, seq, ws, salt) -> TraceProfile:
    return TraceProfile(name, read, tuple(sizes), seq, ws, salt)


#: Approximate first-order statistics for the MSR Cambridge volumes the
#: paper uses, from the published trace characterizations.  Each salt is
#: the value ``hash(name) & 0xFFFF`` takes under ``PYTHONHASHSEED=0`` on
#: CPython 3.11, which earlier releases mixed in per process; pinning it
#: keeps the traces every recorded result was drawn from.
MSR_PROFILES: Dict[str, TraceProfile] = {
    profile.name: profile
    for profile in (
        _profile("prn_0", 0.11, [(1, 0.4), (2, 0.3), (4, 0.2), (16, 0.1)], 0.35, 0.30, 62468),
        _profile("prn_1", 0.75, [(1, 0.3), (2, 0.3), (4, 0.3), (8, 0.1)], 0.40, 0.45, 919),
        _profile("proj_0", 0.12, [(1, 0.3), (2, 0.2), (8, 0.3), (32, 0.2)], 0.60, 0.25, 11582),
        _profile("proj_1", 0.89, [(4, 0.4), (8, 0.3), (16, 0.3)], 0.70, 0.50, 35835),
        _profile("usr_0", 0.40, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.30, 0.35, 56152),
        _profile("usr_1", 0.91, [(4, 0.3), (8, 0.4), (16, 0.3)], 0.55, 0.55, 23765),
        _profile("usr_2", 0.81, [(2, 0.3), (4, 0.4), (8, 0.3)], 0.45, 0.50, 7310),
        _profile("hm_0", 0.35, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.25, 0.30, 51627),
        _profile("hm_1", 0.95, [(1, 0.3), (2, 0.4), (4, 0.3)], 0.35, 0.40, 43399),
        _profile("src1_2", 0.25, [(8, 0.3), (16, 0.4), (32, 0.3)], 0.65, 0.30, 40872),
        _profile("src2_0", 0.11, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.30, 0.25, 25627),
        _profile("mds_0", 0.12, [(1, 0.4), (2, 0.3), (4, 0.3)], 0.35, 0.25, 61375),
        _profile("rsrch_0", 0.09, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.25, 0.20, 50501),
        _profile("stg_0", 0.15, [(1, 0.4), (2, 0.3), (8, 0.3)], 0.40, 0.25, 15987),
        _profile("ts_0", 0.18, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.30, 0.25, 9328),
        _profile("wdev_0", 0.20, [(1, 0.5), (2, 0.3), (4, 0.2)], 0.30, 0.25, 18267),
        _profile("web_0", 0.46, [(1, 0.3), (2, 0.3), (4, 0.2), (8, 0.2)], 0.40, 0.35, 47312),
    )
}

#: Fig 15(b) grouping.
READ_INTENSIVE = tuple(sorted(
    name for name, p in MSR_PROFILES.items() if p.is_read_intensive
))
WRITE_INTENSIVE = tuple(sorted(
    name for name, p in MSR_PROFILES.items() if not p.is_read_intensive
))


def synthesize_trace(profile: TraceProfile, n_requests: int,
                     address_pages: int = 1 << 20,
                     seed: int = 1) -> List[TraceRecord]:
    """Generate a record list matching *profile*'s statistics.

    Sequential runs continue the previous extent; random accesses land
    uniformly in the profile's working set.  The stream depends only on
    *seed* and the profile (its salt included), never on the process.
    """
    if n_requests < 1:
        raise ConfigError(f"n_requests must be >= 1: {n_requests}")
    rng = random.Random(seed ^ profile.salt)
    sizes = [s for s, _w in profile.size_mix]
    weights = [w for _s, w in profile.size_mix]
    working_set = max(64, int(address_pages * profile.working_set_fraction))
    records: List[TraceRecord] = []
    cursor = 0
    for index in range(n_requests):
        op = READ if rng.random() < profile.read_fraction else WRITE
        n_pages = rng.choices(sizes, weights)[0]
        if records and rng.random() < profile.sequential_fraction:
            lpn = cursor
        else:
            lpn = rng.randrange(working_set)
        cursor = (lpn + n_pages) % working_set
        records.append(TraceRecord(op=op, lpn=lpn, n_pages=n_pages,
                                   timestamp=float(index)))
    return records


def make_msr_workload(name: str, n_requests: int = 2000, seed: int = 1,
                      repeat: bool = True,
                      dram_hit_fraction: float = 0.0) -> TraceWorkload:
    """Build a closed-loop workload for one named MSR volume."""
    try:
        profile = MSR_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown trace {name!r}; available: {sorted(MSR_PROFILES)}"
        )
    records = synthesize_trace(profile, n_requests, seed=seed)
    return TraceWorkload(records, name=name, repeat=repeat,
                         dram_hit_fraction=dram_hit_fraction)
