"""Discrete-event simulation substrate for the dSSD reproduction."""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Poll,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    WakeList,
)
from .resources import Link, Resource, Store, Transfer
from .snapshot import (
    int_key_pairs,
    pairs_to_int_dict,
    rng_load_state,
    rng_state_dict,
)
from .stats import Counter, LatencyStats, TimeBins, percentile

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "int_key_pairs",
    "LatencyStats",
    "Link",
    "pairs_to_int_dict",
    "percentile",
    "Poll",
    "Process",
    "Resource",
    "rng_load_state",
    "rng_state_dict",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeBins",
    "Timeout",
    "Transfer",
    "WakeList",
]
