"""Flash memory substrate: geometry, timing, dies/planes and block state, wear.

The backend validates array operations and keeps per-block state; its
planes are capacity-1 :class:`~repro.sim.Resource` objects.  The time
an operation takes is spent by the flash controllers, which hold the
plane through ``Resource.hold`` and own the flash buses
(:mod:`repro.controller`).
"""

from .chip import BlockState, FlashBackend
from .geometry import FlashGeometry, PhysAddr
from .timing import TLC_TIMING, ULL_TIMING, FlashTiming
from .wear import PAPER_PE_MEAN, PAPER_PE_SIGMA, WearModel

__all__ = [
    "BlockState",
    "FlashBackend",
    "FlashGeometry",
    "FlashTiming",
    "PAPER_PE_MEAN",
    "PAPER_PE_SIGMA",
    "PhysAddr",
    "TLC_TIMING",
    "ULL_TIMING",
    "WearModel",
]
