"""Block-level wear and process-variation model.

Following the paper (Sec 6.4, after WAS [40]), each physical block draws
its program/erase (P/E) cycle limit from a Gaussian distribution
(``mean = 5578``, ``sigma = 826.9``).  A block becomes *bad* -- its pages
reach uncorrectable raw bit error rates -- once its erase count exceeds
its sampled limit.

The model is deliberately stateless about erase counts (the flash backend
or the endurance simulator owns those); it only answers "what is this
block's limit?" and "is this block dead at this count?".
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from ..errors import ConfigError

__all__ = ["WearModel", "PAPER_PE_MEAN", "PAPER_PE_SIGMA"]

#: Paper Table 1: gaussian dist., E = 5578.
PAPER_PE_MEAN = 5578.0
#: Paper Table 1: sigma = 826.9.
PAPER_PE_SIGMA = 826.9


class WearModel:
    """Samples and caches per-block P/E limits; computes RBER estimates."""

    def __init__(self, mean: float = PAPER_PE_MEAN,
                 sigma: float = PAPER_PE_SIGMA, seed: int = 1,
                 min_limit: int = 1):
        if mean <= 0:
            raise ConfigError(f"P/E mean must be positive: {mean}")
        if sigma < 0:
            raise ConfigError(f"P/E sigma must be non-negative: {sigma}")
        if min_limit < 1:
            raise ConfigError(f"min_limit must be >= 1: {min_limit}")
        self.mean = mean
        self.sigma = sigma
        self.min_limit = min_limit
        self._seed = seed
        self._rng = random.Random(seed)
        self._limits: Dict[int, int] = {}

    def limit_for(self, block_index: int) -> int:
        """P/E cycle limit for a block (lazily sampled, then cached)."""
        limit = self._limits.get(block_index)
        if limit is None:
            draw = self._rng.gauss(self.mean, self.sigma)
            limit = max(self.min_limit, int(round(draw)))
            self._limits[block_index] = limit
        return limit

    def limits_array(self, n_blocks: int, seed: Optional[int] = None):
        """Vectorized draw of *n_blocks* limits (for the endurance sim).

        Returns a ``numpy.ndarray`` of ``int64``.  Uses an independent
        numpy generator so the scalar cache keeps its own stream; pass
        *seed* for reproducibility across runs.  NumPy is imported here,
        not with the module, so simulating a device never loads it.
        """
        import numpy as np

        rng = np.random.default_rng(self._seed if seed is None else seed)
        draws = rng.normal(self.mean, self.sigma, size=n_blocks)
        return np.maximum(self.min_limit, np.rint(draws)).astype(np.int64)

    def is_dead(self, block_index: int, erase_count: int) -> bool:
        """Whether a block has worn out at the given erase count."""
        return erase_count >= self.limit_for(block_index)

    def rber(self, erase_count: int, block_index: int,
             base: float = 1e-6, growth: float = 8.0) -> float:
        """Raw bit error rate estimate, exponential in wear fraction.

        ``rber = base * exp(growth * erase_count / limit)`` -- a standard
        first-order wear-out curve; absolute values are illustrative, the
        monotonic shape is what the recycling logic depends on.
        """
        limit = self.limit_for(block_index)
        return base * math.exp(growth * erase_count / limit)

    def read_retries(self, erase_count: int, block_index: int) -> int:
        """Extra read-retry passes needed at this wear level.

        Worn blocks shift their threshold-voltage distributions; the
        controller re-reads with adjusted references until ECC
        converges.  Modeled as a step function of the wear fraction:
        fresh blocks read in one pass, blocks past ~80 % of their life
        need one retry, past ~95 % two.
        """
        limit = self.limit_for(block_index)
        fraction = erase_count / limit if limit else 1.0
        if fraction >= 0.95:
            return 2
        if fraction >= 0.80:
            return 1
        return 0

    def reset(self) -> None:
        """Clear cached limits and restart the sample stream."""
        self._rng = random.Random(self._seed)
        self._limits.clear()

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able checkpoint: cached limits + RNG stream position."""
        from ..sim import int_key_pairs, rng_state_dict

        return {"limits": int_key_pairs(self._limits, int),
                "rng": rng_state_dict(self._rng)}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint."""
        from ..sim import pairs_to_int_dict, rng_load_state

        self._limits = pairs_to_int_dict(state["limits"], int)
        rng_load_state(self._rng, state["rng"])
