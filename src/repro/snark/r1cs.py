"""Rank-1 constraint systems (the paper's "arithmetic constraint system").

Def. 2.3 defines a constraint system as polynomials over a finite field in
public-input and witness variables; the standard SNARK arithmetization is
R1CS: every constraint has the shape ``<A, z> * <B, z> = <C, z>`` where ``z``
is the full assignment vector (with ``z[0] == 1``) and A, B, C are sparse
linear combinations.

This module is the *real* part of the SNARK substrate: constraints are
genuinely generated and evaluated against the assignment.  It is the
reference arithmetization — what :meth:`Circuit.check` and the structural
tests run; the proving layer decides the same constraints on wire values
(:mod:`repro.snark.witness`) and is pinned to report exactly the counts
produced here, which is what makes proving-cost benchmarks meaningful.
Constraints are checked eagerly as they are enforced (the assignment is
always complete at enforcement time in our builder), and can optionally be
retained for structural inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.crypto.field import MODULUS
from repro.errors import SynthesisError, UnsatisfiedConstraint

#: Index of the constant-one variable present in every R1CS.
ONE: int = 0


class LinearCombination:
    """A sparse linear combination of R1CS variables.

    Immutable by convention; combining operations return new objects.  Terms
    map variable index -> coefficient (canonical field int, never zero).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        self.terms: dict[int, int] = {}
        if terms:
            for var, coeff in terms.items():
                c = coeff % MODULUS
                if c:
                    self.terms[var] = c

    @classmethod
    def constant(cls, value: int) -> "LinearCombination":
        """The LC representing a field constant (coefficient on ONE)."""
        return cls({ONE: value})

    @classmethod
    def variable(cls, index: int, coeff: int = 1) -> "LinearCombination":
        """The LC for a single variable with optional coefficient."""
        return cls({index: coeff})

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        result = dict(self.terms)
        for var, coeff in other.terms.items():
            c = (result.get(var, 0) + coeff) % MODULUS
            if c:
                result[var] = c
            else:
                result.pop(var, None)
        out = LinearCombination()
        out.terms = result
        return out

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + other.scale(MODULUS - 1)

    def scale(self, scalar: int) -> "LinearCombination":
        """Multiply every coefficient by ``scalar``."""
        s = scalar % MODULUS
        out = LinearCombination()
        if s:
            out.terms = {var: coeff * s % MODULUS for var, coeff in self.terms.items()}
        return out

    def evaluate(self, assignment: list[int]) -> int:
        """Evaluate against a full assignment vector (``assignment[0] == 1``)."""
        total = 0
        for var, coeff in self.terms.items():
            total += coeff * assignment[var]
        return total % MODULUS

    def is_constant(self) -> bool:
        """True when the LC involves only the constant-one variable."""
        return all(var == ONE for var in self.terms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*v{v}" for v, c in sorted(self.terms.items()))
        return f"LC({inner or '0'})"


@dataclass(frozen=True)
class Constraint:
    """One rank-1 constraint ``a * b = c`` with an annotation for debugging."""

    a: LinearCombination
    b: LinearCombination
    c: LinearCombination
    annotation: str = ""


@dataclass
class R1CSStats:
    """Aggregate size statistics of a synthesized constraint system."""

    num_constraints: int = 0
    num_variables: int = 0
    num_public_inputs: int = 0
    num_native_checks: int = 0

    def merge(self, other: "R1CSStats") -> "R1CSStats":
        """Combine statistics from two systems (used by recursion trees)."""
        return R1CSStats(
            num_constraints=self.num_constraints + other.num_constraints,
            num_variables=self.num_variables + other.num_variables,
            num_public_inputs=self.num_public_inputs + other.num_public_inputs,
            num_native_checks=self.num_native_checks + other.num_native_checks,
        )


class ConstraintSystem:
    """An R1CS under construction together with its satisfying assignment.

    The system is *assignment-carrying*: every variable is allocated with its
    concrete value, and every enforced constraint is immediately evaluated.
    An unsatisfied constraint raises :class:`UnsatisfiedConstraint` — this is
    precisely the behaviour the proving layer relies on for its
    knowledge-soundness contract (``Prove`` cannot succeed without a
    satisfying assignment).

    Set ``keep_constraints=True`` to retain the symbolic constraint list for
    structural tests; otherwise only counters are kept.
    """

    def __init__(self, keep_constraints: bool = False) -> None:
        self.assignment: list[int] = [1]  # z[0] == 1
        self.public_indices: list[int] = []
        self.keep_constraints = keep_constraints
        self.constraints: list[Constraint] = []
        self.num_constraints = 0
        self.num_native_checks = 0

    # -- allocation ----------------------------------------------------------

    def alloc(self, value: int, public: bool = False) -> int:
        """Allocate a variable with concrete ``value``; returns its index."""
        index = len(self.assignment)
        self.assignment.append(value % MODULUS)
        if public:
            self.public_indices.append(index)
        return index

    def alloc_public(self, value: int) -> int:
        """Allocate a public-input variable."""
        return self.alloc(value, public=True)

    # -- enforcement -----------------------------------------------------------

    def enforce(
        self,
        a: LinearCombination,
        b: LinearCombination,
        c: LinearCombination,
        annotation: str = "",
    ) -> None:
        """Add the constraint ``a * b = c`` and check it immediately."""
        left = a.evaluate(self.assignment) * b.evaluate(self.assignment) % MODULUS
        right = c.evaluate(self.assignment)
        if left != right:
            raise UnsatisfiedConstraint(
                f"constraint {annotation or self.num_constraints} unsatisfied: "
                f"{left} != {right}"
            )
        self.num_constraints += 1
        if self.keep_constraints:
            self.constraints.append(Constraint(a, b, c, annotation))

    def assert_native(self, condition: bool, message: str) -> None:
        """Record a non-arithmetized predicate check.

        Native checks stand in for gadget families we deliberately do not
        arithmetize (see DESIGN.md §4); they participate in the same
        satisfy-or-raise contract as R1CS constraints.
        """
        self.num_native_checks += 1
        if not condition:
            raise UnsatisfiedConstraint(f"native check failed: {message}")

    # -- results -----------------------------------------------------------------

    def public_values(self) -> tuple[int, ...]:
        """The values of all public-input variables, in allocation order."""
        return tuple(self.assignment[i] for i in self.public_indices)

    def stats(self) -> R1CSStats:
        """Size statistics of the synthesized system."""
        return R1CSStats(
            num_constraints=self.num_constraints,
            num_variables=len(self.assignment) - 1,
            num_public_inputs=len(self.public_indices),
            num_native_checks=self.num_native_checks,
        )

    def is_satisfied(self) -> bool:
        """Re-evaluate retained constraints (requires ``keep_constraints``)."""
        if not self.keep_constraints:
            raise SynthesisError("constraints were not retained; cannot re-check")
        for constraint in self.constraints:
            left = (
                constraint.a.evaluate(self.assignment)
                * constraint.b.evaluate(self.assignment)
            ) % MODULUS
            if left != constraint.c.evaluate(self.assignment):
                return False
        return True


def lc_sum(lcs: Iterable[LinearCombination]) -> LinearCombination:
    """Sum an iterable of linear combinations.

    Accumulates into one mutable dict and builds a single
    :class:`LinearCombination` at the end.  The previous pairwise ``+``
    rebuilt a fresh dict per addend — quadratic in the accumulated term
    count (measured: 4.2x slower at 256 addends of 8 terms, 10x at 1024
    addends; see docs/PERFORMANCE.md).
    """
    total: dict[int, int] = {}
    for lc in lcs:
        for var, coeff in lc.terms.items():
            c = (total.get(var, 0) + coeff) % MODULUS
            if c:
                total[var] = c
            else:
                total.pop(var, None)
    out = LinearCombination()
    out.terms = total
    return out
