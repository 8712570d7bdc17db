"""Latus consensus: Ouroboros-style slots, epochs and stake snapshots."""

from repro.latus.consensus.ouroboros import (
    LeaderSchedule,
    SlotPosition,
    genesis_seed,
    next_epoch_seed,
    slot_leader,
)
from repro.latus.consensus.stake import StakeDistribution

__all__ = [
    "LeaderSchedule",
    "SlotPosition",
    "StakeDistribution",
    "genesis_seed",
    "next_epoch_seed",
    "slot_leader",
]
