"""The reliability engine: RBER sampling, read-retry ladder, retirement.

One engine instance owns the whole reliability state of a simulated
device:

* a per-physical-page error record ``(stored_errors, generation,
  written_at)`` tracking how many bit errors a page's cells hold, how
  many *unchecked* copy hops the data has survived, and when it was
  programmed (for retention aging);
* the seeded :class:`RberModel` that turns per-block wear + age into a
  raw bit-error rate, from which each read samples transient errors;
* the :class:`EccLadder` policy, executed here against the *real*
  simulated resources -- re-reads occupy the flash channel, decodes
  occupy the (possibly per-controller) ECC engine at escalating
  latency scales, and a failed ladder falls back to a RAID-style
  parity rebuild;
* the :class:`BadBlockManager` that remaps or retires blocks whose
  wear crosses their Gaussian P/E limit;
* the :class:`FaultInjector` handed to every flash controller for
  transient channel/die faults.

The copyback argument of the paper (Sec 4.2) falls out of
:meth:`ReliabilityEngine.commit_copy`: a *checked* GC copy passes an
ECC engine, so the destination page starts clean no matter what the
source accumulated; an *unchecked* legacy copyback bakes the source's
stored errors plus the fresh transient errors of this read into the
destination cells, one generation deeper.  ``survivors_ge2`` counts
commits carrying errors through two or more copy generations -- silent
corruption a later host read may no longer be able to correct.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional, Tuple

from ..flash import PhysAddr
from .badblocks import BadBlockManager
from .config import ReliabilityConfig
from .faults import FaultInjector
from .ladder import EccLadder
from .rber import RberModel, poisson

__all__ = ["ReliabilityEngine"]

#: Per-page record: (stored bit errors, unchecked-copy generation,
#: program timestamp in us).
_PageState = Tuple[int, int, float]

_CLEAN: _PageState = (0, 0, 0.0)


class ReliabilityEngine:
    """Device-wide reliability state machine (one per SimulatedSSD)."""

    def __init__(self, sim, backend, blocks, config: ReliabilityConfig,
                 seed: int = 1):
        self.sim = sim
        self.backend = backend
        self.geometry = backend.geometry
        self.blocks = blocks
        self.config = config
        base_seed = (seed ^ config.seed_salt) & 0x7FFFFFFF
        self.rber_model = RberModel(
            base_rber=config.base_rber, growth=config.rber_growth,
            retention_per_ms=config.retention_per_ms,
            pe_mean=config.pe_mean, pe_sigma=config.pe_sigma,
            seed=base_seed,
        )
        self.ladder = EccLadder(
            correct_bits=config.ladder_correct_bits,
            latency_scales=config.ladder_latency_scales,
            raid_recovery=config.raid_recovery,
            raid_recovery_us=config.raid_recovery_us,
        )
        self.faults = FaultInjector(
            sim, channel_fault_rate=config.channel_fault_rate,
            die_fault_rate=config.die_fault_rate,
            timeout_us=config.fault_timeout_us,
            backoff=config.fault_backoff,
            max_retries=config.fault_max_retries,
            seed=base_seed + 1,
        )
        self.badblocks = BadBlockManager(
            self.geometry, blocks,
            spares_per_channel=config.spare_blocks_per_channel,
            srt_capacity=config.srt_capacity,
        )
        self._rng = random.Random(base_seed + 2)
        self._pages: Dict[int, _PageState] = {}
        self.datapath = None
        self._base_remapper = None

        # -- counters ------------------------------------------------------
        self.reads_checked = 0
        self.errors_seen = 0
        self.errors_corrected = 0
        self.ladder_retries = 0
        self.raid_recoveries = 0
        self.uncorrectable_pages = 0
        self.checked_copies = 0
        self.unchecked_copies = 0
        self.copy_errors_scrubbed = 0
        self.copy_errors_propagated = 0
        self.survivors_ge2 = 0
        self.max_generation = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, datapath) -> None:
        """Install this engine into *datapath* (idempotent-unsafe, once).

        Composes the bad-block remap *below* any existing remapper (the
        dynamic-superblock SRT layer), makes the datapath route reads
        through :meth:`post_read`, and hands the fault injector to every
        flash controller.
        """
        self.datapath = datapath
        base = datapath.remapper
        self._base_remapper = base
        if base is None:
            datapath.remapper = self.badblocks.resolve
        else:
            datapath.remapper = lambda addr: self.badblocks.resolve(base(addr))
        datapath.reliability = self
        if self.faults.enabled:
            for controller in datapath.controllers:
                controller.fault_injector = self.faults

    def _base_remap(self, addr: PhysAddr) -> PhysAddr:
        return self._base_remapper(addr) if self._base_remapper else addr

    # -- page state -------------------------------------------------------------

    def _page_index(self, addr: PhysAddr) -> int:
        return (self.geometry.block_index(addr) * self.geometry.pages_per_block
                + addr.page)

    def page_state(self, addr: PhysAddr) -> _PageState:
        """(stored_errors, generation, written_at) of a physical page."""
        return self._pages.get(self._page_index(addr), _CLEAN)

    def _sample_read_errors(self, addr: PhysAddr,
                            state: _PageState) -> int:
        """Stored plus freshly-sampled transient errors for one read."""
        stored, _generation, written_at = state
        block_index = self.geometry.block_index(addr)
        rber = self.rber_model.rber(
            block_index, self.backend.erase_count(addr),
            age_us=max(0.0, self.sim.now - written_at),
        )
        page_bits = self.geometry.page_size * 8
        return stored + poisson(self._rng, rber * page_bits)

    # -- read-verify path -----------------------------------------------------------

    def post_read(self, addr: PhysAddr, breakdown, priority: int = 0,
                  traffic_class: str = "io") -> Generator:
        """Generator: verify a page just read from *addr* (remapped).

        Runs the ECC read-retry ladder on the simulated resources.  Step
        0 is the normal in-path decode; every later step re-reads the
        array (shifted reference voltages -- transient errors resample)
        and pays a slower soft decode.  Returns the outcome string:
        ``"clean"`` / ``"corrected"`` / ``"raid"`` / ``"uncorrectable"``.
        """
        self.reads_checked += 1
        state = self.page_state(addr)
        errors = self._sample_read_errors(addr, state)
        self.errors_seen += errors
        engine = self.datapath.ecc_for(addr.channel)
        page_size = self.geometry.page_size
        for step in range(self.ladder.steps):
            if step > 0:
                self.ladder_retries += 1
                controller = self.datapath.controller_for(addr)
                yield from controller.read_page(addr, traffic_class,
                                                breakdown, priority)
                errors = self._sample_read_errors(addr, state)
            t0 = self.sim.now
            yield from engine.check(page_size, priority,
                                    scale=self.ladder.latency_scales[step])
            breakdown.add("ecc", self.sim.now - t0)
            if self.ladder.corrects(step, errors):
                if errors == 0:
                    return "clean"
                self.errors_corrected += errors
                if traffic_class == "gc":
                    self.copy_errors_scrubbed += errors
                return "corrected"
        if self.ladder.raid_recovery:
            self.raid_recoveries += 1
            t0 = self.sim.now
            if self.ladder.raid_recovery_us > 0:
                yield self.sim.timeout(self.ladder.raid_recovery_us)
            breakdown.add("other", self.sim.now - t0)
            return "raid"
        self.uncorrectable_pages += 1
        return "uncorrectable"

    # -- program / copy / erase hooks ----------------------------------------------

    def on_program(self, addr: PhysAddr) -> None:
        """A host (or flush) program wrote fresh, ECC-clean data."""
        self._pages[self._page_index(addr)] = (0, 0, self.sim.now)

    def commit_copy(self, src: PhysAddr, dst: PhysAddr, checked: bool,
                    outcome: Optional[str] = None) -> None:
        """Record the error outcome of one GC page copy (src/dst remapped).

        A *checked* copy went through an ECC engine in the copy path:
        whatever the source cells held, the destination starts clean
        (unless the page was outright uncorrectable, in which case the
        corruption is permanent and travels on).  An *unchecked* legacy
        copyback writes the raw read-out -- stored plus this read's
        transient errors -- one generation deeper.
        """
        src_state = self.page_state(src)
        stored, generation, _written_at = src_state
        dst_index = self._page_index(dst)
        if checked and outcome != "uncorrectable":
            self.checked_copies += 1
            if stored > 0:
                self.copy_errors_scrubbed += stored
            self._pages[dst_index] = (0, 0, self.sim.now)
            return
        self.unchecked_copies += 1
        errors = stored if checked else self._sample_read_errors(src, src_state)
        next_generation = generation + 1
        self._pages[dst_index] = (errors, next_generation, self.sim.now)
        if errors > 0:
            self.copy_errors_propagated += errors
            if next_generation >= 2:
                self.survivors_ge2 += 1
            if next_generation > self.max_generation:
                self.max_generation = next_generation

    def on_erase_block(self, addr: PhysAddr) -> None:
        """Erase wiped the physical block containing *addr* (remapped)."""
        base = (self.geometry.block_index(addr)
                * self.geometry.pages_per_block)
        for offset in range(self.geometry.pages_per_block):
            self._pages.pop(base + offset, None)

    # -- wear-out retirement ----------------------------------------------------------

    def after_erase(self, victim: PhysAddr) -> str:
        """Post-erase wear check for the FTL block at *victim* (logical).

        Resolves the position through the remap stack, compares the
        physical block's erase count against its Gaussian P/E limit,
        and on wear-out remaps the position onto a spare (or retires it
        for good).  Returns ``"ok"`` / ``"remapped"`` / ``"retired"``.
        """
        base_addr = self._base_remap(victim.block_addr())
        physical = self.badblocks.resolve(base_addr)
        block_index = self.geometry.block_index(physical)
        erase_count = self.backend.erase_count(physical)
        if not self.rber_model.is_dead(block_index, erase_count):
            return "ok"
        return self.badblocks.retire(base_addr,
                                     mark_bad_addr=victim.block_addr())

    # -- checkpointing ----------------------------------------------------------------

    _COUNTERS = (
        "reads_checked", "errors_seen", "errors_corrected",
        "ladder_retries", "raid_recoveries", "uncorrectable_pages",
        "checked_copies", "unchecked_copies", "copy_errors_scrubbed",
        "copy_errors_propagated", "survivors_ge2", "max_generation",
    )

    def media_state(self) -> dict:
        """JSON-able state of the flash media itself.

        Per-page error records, the RBER model's wear-limit cache and
        the bad-block tables: what survives a power cut, so both the
        full checkpoint and the durable projection
        (:func:`~repro.core.checkpoint.durable_state`) carry it.
        """
        from ..sim import int_key_pairs

        return {
            "pages": int_key_pairs(self._pages, list),
            "wear": self.rber_model.wear.state_dict(),
            "badblocks": self.badblocks.state_dict(),
        }

    def load_media_state(self, state: dict) -> None:
        """Restore a :meth:`media_state` projection (same config)."""
        from ..sim import pairs_to_int_dict

        self._pages = pairs_to_int_dict(
            state["pages"],
            lambda rec: (int(rec[0]), int(rec[1]), float(rec[2])))
        self.rber_model.wear.load_state(state["wear"])
        self.badblocks.load_state(state["badblocks"])

    def state_dict(self) -> dict:
        """JSON-able checkpoint of the whole reliability state machine.

        Covers the :meth:`media_state`, all counters, the
        transient-error RNG and the fault injector.  The datapath wiring
        (:meth:`attach`) is structural and re-established at rebuild,
        not snapshotted.
        """
        from ..sim import rng_state_dict

        return {
            **self.media_state(),
            "counters": {name: getattr(self, name)
                         for name in self._COUNTERS},
            "rng": rng_state_dict(self._rng),
            "faults": self.faults.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint (same config)."""
        from ..sim import rng_load_state

        self.load_media_state(state)
        for name in self._COUNTERS:
            setattr(self, name, int(state["counters"][name]))
        rng_load_state(self._rng, state["rng"])
        self.faults.load_state(state["faults"])

    # -- reporting ---------------------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        """Flat counters for :class:`~repro.core.ssd.RunResult` extras."""
        return {
            "reads_checked": float(self.reads_checked),
            "errors_seen": float(self.errors_seen),
            "errors_corrected": float(self.errors_corrected),
            "ladder_retries": float(self.ladder_retries),
            "raid_recoveries": float(self.raid_recoveries),
            "uncorrectable_pages": float(self.uncorrectable_pages),
            "checked_copies": float(self.checked_copies),
            "unchecked_copies": float(self.unchecked_copies),
            "copy_errors_scrubbed": float(self.copy_errors_scrubbed),
            "copy_errors_propagated": float(self.copy_errors_propagated),
            "survivors_ge2": float(self.survivors_ge2),
            "max_generation": float(self.max_generation),
            "blocks_remapped": float(self.badblocks.remapped_blocks),
            "blocks_retired": float(self.badblocks.retired_blocks),
            "spares_remaining": float(self.badblocks.spares_remaining),
            "active_remaps": float(self.badblocks.active_remaps),
            "channel_faults": float(self.faults.channel_faults),
            "die_faults": float(self.faults.die_faults),
            "fault_retries": float(self.faults.retries),
            "fault_exhausted": float(self.faults.exhausted),
        }
