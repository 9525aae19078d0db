"""The endurance simulator and the superblock manager run one protocol.

A slow reference replays an endurance run one failure at a time: it
walks every alive (superblock, channel) position through
``DynamicSuperblockManager.resolve``, ages the sub-blocks serving them,
and reports the most worn-out position to ``on_uncorrectable``.  The
vectorized :class:`EnduranceSimulator` must make the same decisions:
the same curve (so the same retirements), the same remaps and refused
remaps, and the same SRT occupancy log, entries freed included.
"""

import math

import numpy as np
import pytest

from repro.superblock import (
    DynamicSuperblockManager,
    EnduranceConfig,
    EnduranceSimulator,
)


def _replay(config: EnduranceConfig, limits: np.ndarray, reserved: int):
    """Reference run: the manager decides, a plain loop ages blocks."""
    channels = config.channels
    manager = DynamicSuperblockManager(
        config.n_superblocks, channels, srt_capacity=config.srt_capacity,
        reserved_superblocks=reserved)
    wear = np.zeros_like(limits)
    stop_bad = math.ceil(manager.visible * config.stop_bad_fraction)
    sb_bytes = float(config.superblock_bytes)
    total_bytes = 0.0
    curve = []
    while manager.bad_superblocks < stop_bad and manager.alive:
        serving = {(sb, channel): manager.resolve(sb, channel)
                   for sb in sorted(manager.alive)
                   for channel in range(channels)}
        remaining, (sb, channel) = min(
            (int(limits[sub] - wear[sub]), pos)
            for pos, sub in serving.items())
        if remaining > 0:
            for sub in serving.values():
                wear[sub] += remaining
            total_bytes += remaining * float(len(manager.alive)) * sb_bytes
        # A sub-block worn out at this instant is never recycled.
        for other in range(channels):
            sub = serving[(sb, other)]
            if wear[sub] >= limits[sub]:
                manager.dead_subblocks.add(sub)
        manager.on_uncorrectable(sb, channel)
        curve.append((total_bytes, manager.bad_superblocks))
    return manager, curve


@pytest.mark.parametrize("srt_capacity", [4, None])
@pytest.mark.parametrize("policy", ["recycled", "reserv"])
def test_simulator_matches_manager_replay(policy, srt_capacity):
    config = EnduranceConfig(policy=policy, n_superblocks=48, channels=4,
                             srt_capacity=srt_capacity, seed=9)
    sim = EnduranceSimulator(config)
    manager, curve = _replay(config, sim.limits.copy(), sim.reserved)
    result = sim.run()

    assert result.curve == curve
    assert result.remap_events == len(manager.copyback_requests) > 0
    assert result.srt_rejections == sum(t.rejected for t in manager.srt)
    assert result.srt_occupancy == {
        channel: manager.srt[channel].occupancy_log
        for channel in range(config.channels)}
    peak = max(active for table in manager.srt
               for _event, active in table.occupancy_log)
    assert result.max_active_srt_entries == peak
    if srt_capacity is not None:
        assert result.srt_rejections > 0
