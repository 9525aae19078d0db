"""dSSD reproduction library.

Reproduces "Decoupled SSD: Rethinking SSD Architecture through
Network-based Flash Controllers" (ISCA 2023): an event-driven SSD model
with a flash-controller network-on-chip (fNoC), global copyback, and
dynamic superblock management.

Quickstart::

    from repro import build_ssd, ArchPreset
    from repro.workloads import SyntheticWorkload

    ssd = build_ssd(ArchPreset.DSSD_F)
    workload = SyntheticWorkload(pattern="seq_write", io_size=4096)
    result = ssd.run(workload, duration_us=50_000)
    print(result.io_latency.p99)
"""

__version__ = "1.2.0"

from .errors import (
    AddressError,
    ConfigError,
    FlashError,
    MappingError,
    ReproError,
    SnapshotError,
    UncorrectableError,
)

__all__ = [
    "AddressError",
    "ConfigError",
    "FlashError",
    "MappingError",
    "ReproError",
    "SnapshotError",
    "UncorrectableError",
    "__version__",
    "build_ssd",
    "ArchPreset",
]


def __getattr__(name):
    """Lazily expose the high-level API to keep import cost low."""
    if name in ("build_ssd", "ArchPreset", "SSDConfig", "SimulatedSSD",
                "RunResult", "MultiTenantResult", "TenantResult"):
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
