"""Latus sidechain parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatusParams:
    """Constants of a Latus sidechain instance.

    ``mst_depth`` bounds the UTXO population at ``2**mst_depth`` (paper
    §5.2); small depths make slot collisions likely, which is useful for
    exercising the forward-transfer failure path.  ``slots_per_epoch`` is
    the *consensus* (Ouroboros) epoch length in slots — independent from
    withdrawal epochs, as §5.1.1 stresses.
    """

    #: Depth of the Merkle State Tree; capacity is ``2**mst_depth`` UTXOs.
    mst_depth: int = 12

    #: Ouroboros consensus-epoch length, in slots.
    slots_per_epoch: int = 16

    #: Nominal slot duration in seconds (bookkeeping only in the simulation).
    slot_duration_seconds: int = 20


#: Small trees and short epochs for unit tests.
TEST_LATUS_PARAMS = LatusParams(mst_depth=8, slots_per_epoch=8)
