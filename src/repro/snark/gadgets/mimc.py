"""R1CS gadget mirroring the MiMC permutation round-for-round.

Each round enforces ``t = r + k + c_i`` (linear, free) and the exponent-5
power map via three multiplications (``t2 = t*t``, ``t4 = t2*t2``,
``r' = t4*t``), exactly matching :func:`repro.crypto.mimc.mimc_permutation`.
A two-to-one compression therefore costs ``3 * ROUNDS`` constraints, which is
the dominant cost driver of Merkle-path circuits (bench Q5).

The native side is an exec-compiled unrolled permutation (see
docs/PERFORMANCE.md); this gadget is the constraint-level specification it
must stay faithful to.  The randomized parity sweep in
``tests/test_mimc.py::TestGadgetNativeParity`` enforces the agreement, so
any change to the round structure here must be mirrored in
:mod:`repro.crypto.mimc` and vice versa.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.mimc import ROUND_CONSTANTS
from repro.snark.circuit import CircuitBuilder, Wire


def mimc_permutation_gadget(builder: CircuitBuilder, x: Wire, k: Wire) -> Wire:
    """Enforce the keyed MiMC permutation; returns the output wire.

    A builder that offers ``mimc_permutation`` (the value-level
    :class:`repro.snark.witness.WitnessChecker`) takes the whole permutation
    in one call.  The symbolic builder takes the op-for-op loop below, which
    is the constraint-level specification that call must agree with in
    output value and in the 330 variables and constraints it counts.
    """
    whole = getattr(builder, "mimc_permutation", None)
    if whole is not None:
        return whole(x, k)
    r = x
    for constant in ROUND_CONSTANTS:
        t = builder.add(builder.add(r, k), builder.constant(constant))
        t2 = builder.square(t, "mimc/t2")
        t4 = builder.square(t2, "mimc/t4")
        r = builder.mul(t4, t, "mimc/t5")
    return builder.add(r, k)


def mimc_compress_gadget(builder: CircuitBuilder, left: Wire, right: Wire) -> Wire:
    """Enforce Miyaguchi–Preneel compression ``E_r(l) + l + r``."""
    permuted = mimc_permutation_gadget(builder, left, right)
    return builder.add(builder.add(permuted, left), right)


def mimc_hash_gadget(builder: CircuitBuilder, elements: Sequence[Wire]) -> Wire:
    """Enforce the chained MiMC hash over a sequence of wires.

    Mirrors :func:`repro.crypto.mimc.mimc_hash` (length-tagged
    Miyaguchi–Preneel chain).
    """
    state = mimc_compress_gadget(
        builder, builder.constant(0), builder.constant(len(elements))
    )
    for element in elements:
        state = mimc_compress_gadget(builder, state, element)
    return state
