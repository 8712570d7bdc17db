"""Prime-field arithmetic for the SNARK substrate.

The paper (Def. 2.3) defines arithmetic constraint systems over a finite
field F.  We fix the field used throughout the reproduction to the prime
``p = 2**255 - 19``.  The choice matters for the MiMC permutation used as the
circuit-friendly hash: ``gcd(5, p - 1) == 1`` so ``x -> x**5`` is a bijection
over F (exponent 3 would *not* be, since ``3 | p - 1``).

Field elements are exposed both as a thin immutable wrapper (:class:`Fp`)
convenient for algorithm code, and as plain-int helper functions used in hot
paths (the MiMC permutation, R1CS evaluation).  The module-level functions
(:func:`add` … :func:`pow5`) are plain CPython big-int arithmetic, the only
implementation of the field: there is no alternative backend to select.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import FieldError

#: The field modulus used throughout the reproduction: ``2**255 - 19``
#: (the Curve25519 base-field prime) — a 255-bit prime, chosen because
#: ``gcd(5, p - 1) == 1`` makes the MiMC exponent-5 round map a bijection.
#: This is the single source of truth for the modulus; any prose describing
#: the field (ROADMAP, docs/PERFORMANCE.md) must agree with this value.
MODULUS: int = 2**255 - 19

#: Number of bytes needed to serialize one field element.
ELEMENT_BYTES: int = 32

#: Number of bits of a field element.
ELEMENT_BITS: int = 255


def add(a: int, b: int) -> int:
    """Field addition on canonical ints."""
    s = a + b
    return s - MODULUS if s >= MODULUS else s


def sub(a: int, b: int) -> int:
    """Field subtraction on canonical ints."""
    d = a - b
    return d + MODULUS if d < 0 else d


def mul(a: int, b: int) -> int:
    """Field multiplication on canonical ints."""
    return a * b % MODULUS


def neg(a: int) -> int:
    """Field negation on canonical ints."""
    return MODULUS - a if a else 0


def inv(a: int) -> int:
    """Multiplicative inverse; raises :class:`FieldError` on zero."""
    if a % MODULUS == 0:
        raise FieldError("division by zero in field inverse")
    return pow(a, MODULUS - 2, MODULUS)


def pow5(a: int) -> int:
    """Compute ``a**5 mod p`` — the MiMC round exponent (3 multiplications)."""
    a2 = a * a % MODULUS
    a4 = a2 * a2 % MODULUS
    return a4 * a % MODULUS


def element_to_bytes(a: int) -> bytes:
    """Serialize a canonical field element to 32 little-endian bytes."""
    return a.to_bytes(ELEMENT_BYTES, "little")


def element_from_bytes(data: bytes) -> int:
    """Deserialize 32 little-endian bytes, reducing into the field.

    Reduction (rather than rejection) is intentional: the function is used to
    map hash outputs into the field, where a uniform-enough distribution is
    all that is required.
    """
    if len(data) != ELEMENT_BYTES:
        raise FieldError(f"expected {ELEMENT_BYTES} bytes, got {len(data)}")
    return int.from_bytes(data, "little") % MODULUS


class Fp:
    """An immutable field element with operator overloading.

    Use this in algorithm-level code; hot loops should use the plain-int
    helpers above.
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value % MODULUS)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Fp is immutable")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value + _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value - _coerce(other))

    def __rsub__(self, other: "Fp | int") -> "Fp":
        return Fp(_coerce(other) - self.value)

    def __mul__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value * _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value * inv(_coerce(other)))

    def __neg__(self) -> "Fp":
        return Fp(neg(self.value))

    def __pow__(self, exponent: int) -> "Fp":
        return Fp(pow(self.value, exponent, MODULUS))

    def inverse(self) -> "Fp":
        """Return the multiplicative inverse of this element."""
        return Fp(inv(self.value))

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other % MODULUS
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Fp({self.value})"

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to 32 little-endian bytes."""
        return element_to_bytes(self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Fp":
        """Deserialize (reducing) from 32 little-endian bytes."""
        return cls(element_from_bytes(data))


def _coerce(other: "Fp | int") -> int:
    if isinstance(other, Fp):
        return other.value
    if isinstance(other, int):
        return other % MODULUS
    raise TypeError(f"cannot coerce {type(other).__name__} to field element")


def sum_elements(values: Iterable[int]) -> int:
    """Field sum of an iterable of canonical ints."""
    total = 0
    for v in values:
        total += v
    return total % MODULUS
