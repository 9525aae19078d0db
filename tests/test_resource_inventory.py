"""Pin the kernel's resource inventory of every assembled device.

Quiescence messages, the leaked-hold oracle and the fuzzer's outcome
details print resources by name, in the order the simulator registered
them (planes, flash buses, system bus, DRAM ports, ...).  A refactor of
how those resources are wrapped must keep both, so each preset's
``(type, name)`` list is pinned here as a short digest.  The digests
were last re-recorded when the token pools became ``Resource`` objects:
only those type names changed, with the same names in the same order.
"""

import hashlib
import json

import pytest

from repro.core import ArchPreset, build_ssd
from repro.reliability import ReliabilityConfig

INVENTORY = {
    "baseline": "3e4b3fd7fa159835",
    "bw": "3e4b3fd7fa159835",
    "dssd": "3939a4269043ae3b",
    "dssd_b": "cbeceef7e3832b69",
    "dssd_f": "e6904e57bf75f7ae",
    "dssd_f+faults": "e6904e57bf75f7ae",
}


def _digest(ssd):
    inventory = [(type(r).__name__, r.name) for r in ssd.sim._resources]
    return hashlib.sha256(json.dumps(inventory).encode()).hexdigest()[:16]


@pytest.mark.parametrize("arch", [a.value for a in ArchPreset])
def test_preset_resource_inventory(arch):
    assert _digest(build_ssd(arch)) == INVENTORY[arch]


def test_fault_injection_resource_inventory():
    faults = ReliabilityConfig(channel_fault_rate=0.01, die_fault_rate=0.01)
    ssd = build_ssd("dssd_f", reliability=faults)
    assert _digest(ssd) == INVENTORY["dssd_f+faults"]


def test_inventory_starts_with_planes_then_flash_buses():
    ssd = build_ssd("baseline")
    names = [r.name for r in ssd.sim._resources]
    planes = ssd.config.geometry.planes_total
    channels = ssd.config.geometry.channels
    assert names[:planes] == [f"plane{i}" for i in range(planes)]
    assert names[planes:planes + channels + 3] == (
        [f"flash_bus{c}" for c in range(channels)]
        + ["system_bus", "dram_rd", "dram_wr"])
