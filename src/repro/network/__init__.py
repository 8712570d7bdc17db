"""Deterministic discrete-event network simulation substrate."""

from repro.network.faults import (
    CLEAN,
    FaultDecision,
    FaultPlan,
    Partition,
    partition,
)
from repro.network.simulator import (
    NEVER,
    LatencyModel,
    NetworkSimulator,
)

__all__ = [
    "CLEAN",
    "FaultDecision",
    "FaultPlan",
    "LatencyModel",
    "NEVER",
    "NetworkSimulator",
    "Partition",
    "partition",
]
