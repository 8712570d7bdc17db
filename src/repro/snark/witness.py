"""Value-level witness checking — what ``Prove`` runs for every circuit.

:class:`~repro.snark.circuit.CircuitBuilder` is the reference
arithmetization: it materialises every constraint's sparse ``A``/``B``/``C``
rows as :class:`~repro.snark.r1cs.LinearCombination` dicts and evaluates
them against the assignment vector.  Deciding whether a witness satisfies
the circuit needs none of that structure, because of one invariant of the
builder operations:

    every wire's ``value`` equals ``<LC, z>`` — its linear combination
    evaluated on the assignment — from the moment the wire exists.

(``alloc`` assigns the variable the value; ``add``/``sub``/``scale``/``sum``
are linear in both; ``mul``, ``select``, the bits and the inverse are fresh
allocations.)  A constraint ``<A,z> * <B,z> = <C,z>`` can therefore be
evaluated on the values of the wires it was built from, with no matrix in
hand.  :class:`WitnessChecker` does exactly that: it offers the builder's
method surface, its wires carry only field values, and it

* counts allocations, constraints and native checks op-for-op like the
  symbolic builder, so :class:`~repro.snark.r1cs.R1CSStats` are identical;
* computes each product definition once — the product variable is assigned
  that very value, so the row holds by construction and the count advances.
  A MiMC permutation's 330 products are one value, which
  :func:`~repro.crypto.mimc.memo_permutation` reads off the native hash memo
  (a pure cache only the compiled permutation fills) without writing or
  counting anything;
* evaluates every *refutable* constraint on the spot — equality, zero,
  booleanity, the non-zero inverse, bit recomposition, select — and raises
  the symbolic builder's :class:`~repro.errors.UnsatisfiedConstraint`
  message verbatim, in the same order relative to native checks.

There is no structure to cache, so there is no shape key and nothing to
ship to pool workers.  ``tests/test_witness_checker.py``
pins the checker against the symbolic builder (stats, verdict, exception
type and message) for every circuit family, for random op programs over the
whole surface, and for the method signatures themselves.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.field import MODULUS, inv
from repro.crypto.mimc import ROUNDS, memo_permutation
from repro.errors import UnsatisfiedConstraint
from repro.snark.circuit import Circuit, _validate_publics
from repro.snark.r1cs import R1CSStats


class WitnessWire:
    """A wire of the value-level checker: the concrete field value only."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"WitnessWire(value={self.value})"


class WitnessChecker:
    """:class:`~repro.snark.circuit.CircuitBuilder`'s surface on bare values."""

    __slots__ = (
        "num_variables",
        "num_constraints",
        "num_native_checks",
        "public_values",
        "_one",
    )

    def __init__(self) -> None:
        self.num_variables = 0
        self.num_constraints = 0
        self.num_native_checks = 0
        #: Values of the public-input wires, in allocation order.
        self.public_values: list[int] = []
        self._one = WitnessWire(1)

    def _enforce(self, left: int, right: int, annotation: str) -> None:
        """Count one refutable constraint whose two sides evaluated to these."""
        if left != right:
            raise UnsatisfiedConstraint(
                f"constraint {annotation or self.num_constraints} unsatisfied: "
                f"{left} != {right}"
            )
        self.num_constraints += 1

    # -- allocation ----------------------------------------------------------

    @property
    def one(self) -> WitnessWire:
        """The constant-one wire."""
        return self._one

    def constant(self, value: int) -> WitnessWire:
        """A wire fixed to a field constant (costs no variable)."""
        return WitnessWire(value % MODULUS)

    def alloc(self, value: int) -> WitnessWire:
        """Allocate a private witness wire carrying ``value``."""
        self.num_variables += 1
        return WitnessWire(value % MODULUS)

    def alloc_public(self, value: int) -> WitnessWire:
        """Allocate a public-input wire carrying ``value``."""
        wire = self.alloc(value)
        self.public_values.append(wire.value)
        return wire

    def alloc_publics(self, values: Sequence[int]) -> list[WitnessWire]:
        """Allocate a list of public-input wires."""
        return [self.alloc_public(v) for v in values]

    # -- linear ops (free: no constraints) -----------------------------------

    def add(self, a: WitnessWire, b: WitnessWire) -> WitnessWire:
        """Wire for ``a + b``."""
        return WitnessWire((a.value + b.value) % MODULUS)

    def sub(self, a: WitnessWire, b: WitnessWire) -> WitnessWire:
        """Wire for ``a - b``."""
        return WitnessWire((a.value - b.value) % MODULUS)

    def scale(self, a: WitnessWire, scalar: int) -> WitnessWire:
        """Wire for ``scalar * a``."""
        return WitnessWire(a.value * scalar % MODULUS)

    def sum(self, wires: Sequence[WitnessWire]) -> WitnessWire:
        """Wire for the sum of ``wires``."""
        total = 0
        for w in wires:
            total += w.value
        return WitnessWire(total % MODULUS)

    # -- multiplicative ops (one constraint each) ------------------------------

    def mul(self, a: WitnessWire, b: WitnessWire, annotation: str = "mul") -> WitnessWire:
        """Allocate ``a * b``; the product row holds by construction."""
        self.num_variables += 1
        self.num_constraints += 1
        return WitnessWire(a.value * b.value % MODULUS)

    def square(self, a: WitnessWire, annotation: str = "square") -> WitnessWire:
        """Allocate ``a * a``."""
        return self.mul(a, a, annotation)

    def enforce_equal(
        self, a: WitnessWire, b: WitnessWire, annotation: str = "eq"
    ) -> None:
        """Check ``(a - b) * 1 = 0``."""
        self._enforce((a.value - b.value) % MODULUS, 0, annotation)

    def enforce_zero(self, a: WitnessWire, annotation: str = "zero") -> None:
        """Check ``a * 1 = 0``."""
        self._enforce(a.value, 0, annotation)

    def enforce_boolean(self, a: WitnessWire, annotation: str = "bool") -> None:
        """Check ``a * (a - 1) = 0``."""
        self._enforce(a.value * (a.value - 1) % MODULUS, 0, annotation)

    def enforce_nonzero(self, a: WitnessWire, annotation: str = "nonzero") -> None:
        """Check ``a * a^-1 = 1``; zero gets the builder's bogus inverse 0."""
        inverse = self.alloc(inv(a.value) if a.value else 0)
        self._enforce(a.value * inverse.value % MODULUS, 1, annotation)

    # -- composite gadgets -----------------------------------------------------

    def alloc_bit(self, value: int) -> WitnessWire:
        """Allocate a wire checked to be boolean."""
        bit = self.alloc(value)
        self.enforce_boolean(bit)
        return bit

    def decompose_bits(
        self, a: WitnessWire, num_bits: int, annotation: str = "bits"
    ) -> list[WitnessWire]:
        """Little-endian bits of ``a`` plus the recomposition check.

        The bits are extracted as 0/1, so their ``num_bits`` booleanity rows
        hold by construction; what a bad witness refutes is the recomposition
        ``sum(bit_i * 2**i) == a``, i.e. whether ``a`` fits in ``num_bits``.
        """
        value = a.value
        bits = [WitnessWire((value >> i) & 1) for i in range(num_bits)]
        self.num_variables += len(bits)
        self.num_constraints += len(bits)
        recomposed = value & ((1 << num_bits) - 1) if bits else 0
        self._enforce((recomposed - value) % MODULUS, 0, annotation)
        return bits

    def enforce_range(
        self, a: WitnessWire, num_bits: int, annotation: str = "range"
    ) -> None:
        """Check ``0 <= a < 2**num_bits`` (num_bits + 1 constraints)."""
        self.decompose_bits(a, num_bits, annotation)

    def select(
        self, condition: WitnessWire, if_true: WitnessWire, if_false: WitnessWire
    ) -> WitnessWire:
        """``condition ? if_true : if_false`` via ``cond * (t - f) = out - f``."""
        out = self.alloc(if_true.value if condition.value else if_false.value)
        self._enforce(
            condition.value * (if_true.value - if_false.value) % MODULUS,
            (out.value - if_false.value) % MODULUS,
            "select",
        )
        return out

    def swap_if(
        self, condition: WitnessWire, a: WitnessWire, b: WitnessWire
    ) -> tuple[WitnessWire, WitnessWire]:
        """``(a, b)`` when condition is 0, ``(b, a)`` when 1."""
        left = self.select(condition, b, a)
        right = self.select(condition, a, b)
        return left, right

    def assert_native(self, condition: bool, message: str) -> None:
        """Count and check a native (non-arithmetized) predicate."""
        self.num_native_checks += 1
        if not condition:
            raise UnsatisfiedConstraint(f"native check failed: {message}")

    def mimc_permutation(self, x: WitnessWire, k: WitnessWire) -> WitnessWire:
        """A whole keyed MiMC permutation: 330 product definitions, one call
        (:func:`~repro.snark.gadgets.mimc.mimc_permutation_gadget`'s hook)."""
        self.num_variables += 3 * ROUNDS
        self.num_constraints += 3 * ROUNDS
        return WitnessWire(memo_permutation(x.value, k.value))

    # -- results -----------------------------------------------------------------

    def stats(self) -> R1CSStats:
        """Size statistics of everything checked so far."""
        return R1CSStats(
            num_constraints=self.num_constraints,
            num_variables=self.num_variables,
            num_public_inputs=len(self.public_values),
            num_native_checks=self.num_native_checks,
        )


def check_witness(
    circuit: Circuit, public_input: Sequence[int], witness: Any
) -> R1CSStats:
    """Decide ``(public_input, witness)`` against ``circuit``; stats or raise.

    Same contract as :meth:`Circuit.check` on the symbolic builder: identical
    :class:`R1CSStats`, identical :class:`UnsatisfiedConstraint` /
    :class:`~repro.errors.SynthesisError` on a bad witness or a circuit that
    does not allocate its declared public input.
    """
    checker = WitnessChecker()
    circuit.synthesize(checker, public_input, witness)
    _validate_publics(tuple(checker.public_values), public_input)
    return checker.stats()
