"""Circuit-builder DSL on top of the raw R1CS.

A :class:`Wire` is a handle pairing a linear combination with its concrete
value; the :class:`CircuitBuilder` offers the usual gadget vocabulary
(multiplication, booleans, equality, bit decomposition, conditional select)
from which the higher-level gadgets in :mod:`repro.snark.gadgets` are built.

Circuits themselves are classes implementing the :class:`Circuit` protocol:
a stable ``circuit_id`` (which determines the verification key at Setup) and
a ``synthesize`` method that, given the builder, the public input and the
witness, allocates wires and enforces the statement.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

from repro.crypto.field import MODULUS, inv
from repro.errors import SynthesisError
from repro.snark.r1cs import ConstraintSystem, LinearCombination, R1CSStats, lc_sum


class Wire:
    """A circuit wire: a linear combination plus its concrete value."""

    __slots__ = ("lc", "value")

    def __init__(self, lc: LinearCombination, value: int) -> None:
        self.lc = lc
        self.value = value % MODULUS

    def __repr__(self) -> str:
        return f"Wire(value={self.value})"


class CircuitBuilder:
    """Allocation and constraint-enforcement surface used by circuits."""

    def __init__(self, keep_constraints: bool = False) -> None:
        self.cs = ConstraintSystem(keep_constraints=keep_constraints)
        self._one = Wire(LinearCombination.constant(1), 1)

    # -- allocation ----------------------------------------------------------

    @property
    def one(self) -> Wire:
        """The constant-one wire."""
        return self._one

    def constant(self, value: int) -> Wire:
        """A wire fixed to a field constant (costs no variable)."""
        return Wire(LinearCombination.constant(value), value)

    def alloc(self, value: int) -> Wire:
        """Allocate a private witness wire carrying ``value``."""
        index = self.cs.alloc(value)
        return Wire(LinearCombination.variable(index), value)

    def alloc_public(self, value: int) -> Wire:
        """Allocate a public-input wire carrying ``value``."""
        index = self.cs.alloc_public(value)
        return Wire(LinearCombination.variable(index), value)

    def alloc_publics(self, values: Sequence[int]) -> list[Wire]:
        """Allocate a list of public-input wires."""
        return [self.alloc_public(v) for v in values]

    # -- linear ops (free: no constraints) -----------------------------------

    def add(self, a: Wire, b: Wire) -> Wire:
        """Wire for ``a + b`` — linear, costs no constraint."""
        return Wire(a.lc + b.lc, (a.value + b.value) % MODULUS)

    def sub(self, a: Wire, b: Wire) -> Wire:
        """Wire for ``a - b`` — linear, costs no constraint."""
        return Wire(a.lc - b.lc, (a.value - b.value) % MODULUS)

    def scale(self, a: Wire, scalar: int) -> Wire:
        """Wire for ``scalar * a`` — linear, costs no constraint."""
        return Wire(a.lc.scale(scalar), a.value * scalar % MODULUS)

    def sum(self, wires: Sequence[Wire]) -> Wire:
        """Wire for the sum of ``wires`` — linear, costs no constraint.

        Accumulates terms into one mutable scratch dict (via
        :func:`~repro.snark.r1cs.lc_sum`) instead of chaining pairwise
        ``__add__``, which copies the accumulated dict per addend —
        quadratic in the total term count for add-heavy gadgets.
        ``LinearCombination`` stays immutable by convention; the scratch
        dict lives only inside the accumulator.
        """
        total_value = 0
        for w in wires:
            total_value += w.value
        return Wire(lc_sum(w.lc for w in wires), total_value % MODULUS)

    # -- multiplicative ops (one constraint each) ------------------------------

    def mul(self, a: Wire, b: Wire, annotation: str = "mul") -> Wire:
        """Allocate ``a * b`` and enforce the product constraint."""
        product = self.alloc(a.value * b.value % MODULUS)
        self.cs.enforce(a.lc, b.lc, product.lc, annotation)
        return product

    def square(self, a: Wire, annotation: str = "square") -> Wire:
        """Allocate and enforce ``a * a``."""
        return self.mul(a, a, annotation)

    def enforce_equal(self, a: Wire, b: Wire, annotation: str = "eq") -> None:
        """Enforce ``a == b`` (one constraint: ``(a - b) * 1 = 0``)."""
        self.cs.enforce(a.lc - b.lc, self._one.lc, LinearCombination(), annotation)

    def enforce_zero(self, a: Wire, annotation: str = "zero") -> None:
        """Enforce ``a == 0``."""
        self.cs.enforce(a.lc, self._one.lc, LinearCombination(), annotation)

    def enforce_boolean(self, a: Wire, annotation: str = "bool") -> None:
        """Enforce ``a ∈ {0, 1}`` via ``a * (a - 1) = 0``."""
        self.cs.enforce(a.lc, a.lc - self._one.lc, LinearCombination(), annotation)

    def enforce_nonzero(self, a: Wire, annotation: str = "nonzero") -> None:
        """Enforce ``a != 0`` by exhibiting its inverse (one constraint)."""
        if a.value == 0:
            # allocate a bogus inverse so the constraint fails with the
            # canonical UnsatisfiedConstraint rather than a FieldError
            inverse = self.alloc(0)
        else:
            inverse = self.alloc(inv(a.value))
        self.cs.enforce(a.lc, inverse.lc, self._one.lc, annotation)

    # -- composite gadgets -----------------------------------------------------

    def alloc_bit(self, value: int) -> Wire:
        """Allocate a wire constrained to be boolean."""
        bit = self.alloc(value)
        self.enforce_boolean(bit)
        return bit

    def decompose_bits(self, a: Wire, num_bits: int, annotation: str = "bits") -> list[Wire]:
        """Decompose ``a`` into ``num_bits`` little-endian boolean wires.

        Enforces both booleanity of every bit and the recomposition
        ``sum(bit_i * 2**i) == a``; this doubles as a range check
        ``a < 2**num_bits``.
        """
        # out-of-range values get truncated bits so enforcement fails
        # canonically at the recomposition constraint
        bits = [self.alloc_bit((a.value >> i) & 1) for i in range(num_bits)]
        recomposed = self.sum(
            [self.scale(bit, 1 << i) for i, bit in enumerate(bits)]
        )
        self.enforce_equal(recomposed, a, annotation)
        return bits

    def enforce_range(self, a: Wire, num_bits: int, annotation: str = "range") -> None:
        """Enforce ``0 <= a < 2**num_bits`` (costs num_bits + 1 constraints)."""
        self.decompose_bits(a, num_bits, annotation)

    def select(self, condition: Wire, if_true: Wire, if_false: Wire) -> Wire:
        """Return ``condition ? if_true : if_false``.

        ``condition`` must already be boolean-constrained.  Costs one
        constraint: ``condition * (t - f) = out - f``.
        """
        out_value = if_true.value if condition.value else if_false.value
        out = self.alloc(out_value)
        self.cs.enforce(
            condition.lc,
            if_true.lc - if_false.lc,
            out.lc - if_false.lc,
            "select",
        )
        return out

    def swap_if(self, condition: Wire, a: Wire, b: Wire) -> tuple[Wire, Wire]:
        """Return ``(a, b)`` when condition is 0, ``(b, a)`` when 1.

        Two constraints; used by Merkle path verification.
        """
        left = self.select(condition, b, a)
        right = self.select(condition, a, b)
        return left, right

    def assert_native(self, condition: bool, message: str) -> None:
        """Forward a native (non-arithmetized) check to the system."""
        self.cs.assert_native(condition, message)

    # -- results -----------------------------------------------------------------

    def stats(self) -> R1CSStats:
        """Size statistics of everything enforced so far."""
        return self.cs.stats()


class Circuit(abc.ABC):
    """A provable statement: a stable identity plus a synthesis procedure.

    Subclasses set :attr:`circuit_id` (which, together with the parameter
    digest, determines the verification key identity at Setup) and implement
    :meth:`synthesize`.
    """

    #: Stable identifier of the constraint-system family.
    circuit_id: str = ""

    def parameters_digest(self) -> bytes:
        """Digest of circuit parameters that alter the constraint structure.

        Subclasses whose shape depends on parameters (tree depth, tx counts)
        override this so that differently-parameterized instances get
        distinct verification keys.
        """
        return b""

    @abc.abstractmethod
    def synthesize(
        self, builder: CircuitBuilder, public_input: Sequence[int], witness: Any
    ) -> None:
        """Allocate wires and enforce the statement.

        ``public_input`` is the tuple of field elements the verifier will see;
        the circuit must allocate exactly these values as public wires (the
        proving layer cross-checks).  ``witness`` is circuit-defined.
        """

    def check(self, public_input: Sequence[int], witness: Any) -> R1CSStats:
        """Synthesize outside the proving flow; returns stats or raises."""
        builder = CircuitBuilder()
        self.synthesize(builder, public_input, witness)
        _validate_publics(builder.cs.public_values(), public_input)
        return builder.stats()


def _validate_publics(declared: tuple[int, ...], public_input: Sequence[int]) -> None:
    """Raise unless the public wires a synthesis allocated are ``public_input``."""
    expected = tuple(v % MODULUS for v in public_input)
    if declared != expected:
        raise SynthesisError(
            "circuit did not allocate the declared public input: "
            f"declared {len(declared)} values, expected {len(expected)}"
        )
