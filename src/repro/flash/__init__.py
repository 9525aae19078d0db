"""Flash memory substrate: geometry, timing, dies/planes and block state, wear.

The backend validates array operations and keeps per-block state; the
time they take is spent by the flash controllers, which own the flash
buses (:mod:`repro.controller`).
"""

from .chip import BlockState, FlashBackend, FlashPlane
from .geometry import FlashGeometry, PhysAddr
from .timing import TLC_TIMING, ULL_TIMING, FlashTiming
from .wear import PAPER_PE_MEAN, PAPER_PE_SIGMA, WearModel

__all__ = [
    "BlockState",
    "FlashBackend",
    "FlashGeometry",
    "FlashPlane",
    "FlashTiming",
    "PAPER_PE_MEAN",
    "PAPER_PE_SIGMA",
    "PhysAddr",
    "TLC_TIMING",
    "ULL_TIMING",
    "WearModel",
]
