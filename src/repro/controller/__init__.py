"""SSD-controller front-end components: DRAM, ECC, host, flash controllers.

The system bus is a plain :class:`~repro.sim.Link` built by
:class:`~repro.core.SimulatedSSD`; each :class:`FlashController` owns
its channel's flash bus and holds a plane per array operation through
:meth:`~repro.sim.Resource.hold`.  Every counted pool here is one
:class:`~repro.sim.Resource`: the host's submission-queue slots, the
DRAM write buffer and the ECC engine's lanes, whose decode is one
``hold`` as well.
"""

from .breakdown import COMPONENTS, Breakdown
from .dram import PAPER_DRAM_BW, Dram
from .ecc import DEFAULT_ECC_FIXED_US, DEFAULT_ECC_THROUGHPUT, EccEngine
from .flash_controller import FlashController
from .host import PAPER_HOST_BW, PAPER_QUEUE_DEPTH, HostInterface

__all__ = [
    "Breakdown",
    "COMPONENTS",
    "Dram",
    "DEFAULT_ECC_FIXED_US",
    "DEFAULT_ECC_THROUGHPUT",
    "EccEngine",
    "FlashController",
    "HostInterface",
    "PAPER_DRAM_BW",
    "PAPER_HOST_BW",
    "PAPER_QUEUE_DEPTH",
]
