"""SNARK substrate: R1CS, circuit DSL, gadgets, proving, recursion.

The proving layer is a documented simulation over a real arithmetization —
see :mod:`repro.snark.proving` and DESIGN.md §4 for the substitution notice.
"""

from repro.snark.circuit import Circuit, CircuitBuilder, Wire
from repro.snark.proving import (
    PROOF_SIZE,
    Proof,
    ProveResult,
    ProvingKey,
    VerifyingKey,
    expect_valid,
    prove,
    prove_with_stats,
    setup,
    verify,
)
from repro.snark.r1cs import ConstraintSystem, LinearCombination, R1CSStats
from repro.snark.recursive import (
    CompositionStats,
    RecursiveComposer,
    TransitionProof,
    TransitionSystem,
)
from repro.snark.witness import WitnessChecker, check_witness

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CompositionStats",
    "ConstraintSystem",
    "LinearCombination",
    "PROOF_SIZE",
    "Proof",
    "ProveResult",
    "ProvingKey",
    "R1CSStats",
    "RecursiveComposer",
    "TransitionProof",
    "TransitionSystem",
    "VerifyingKey",
    "Wire",
    "WitnessChecker",
    "check_witness",
    "expect_valid",
    "prove",
    "prove_with_stats",
    "setup",
    "verify",
]
