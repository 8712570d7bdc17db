"""Unit tests for the prime field (repro.crypto.field)."""

import pytest

from repro.crypto import field
from repro.crypto.field import MODULUS, Fp
from repro.errors import FieldError


class TestScalarHelpers:
    def test_modulus_is_25519_prime(self):
        assert MODULUS == 2**255 - 19

    def test_exponent_five_is_a_permutation(self):
        # gcd(5, p-1) == 1 is the property MiMC relies on.
        import math

        assert math.gcd(5, MODULUS - 1) == 1

    def test_exponent_three_would_not_be(self):
        import math

        assert math.gcd(3, MODULUS - 1) == 3

    def test_add_wraps(self):
        assert field.add(MODULUS - 1, 1) == 0
        assert field.add(MODULUS - 1, 2) == 1

    def test_sub_wraps(self):
        assert field.sub(0, 1) == MODULUS - 1

    def test_mul_reduces(self):
        assert field.mul(MODULUS - 1, MODULUS - 1) == 1  # (-1)*(-1)

    def test_neg(self):
        assert field.neg(0) == 0
        assert field.neg(5) == MODULUS - 5

    def test_inv_roundtrip(self):
        for value in (1, 2, 12345, MODULUS - 1):
            assert field.mul(value, field.inv(value)) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(FieldError):
            field.inv(0)
        with pytest.raises(FieldError):
            field.inv(MODULUS)  # congruent to zero

    def test_pow5_matches_pow(self):
        for value in (0, 1, 2, 7, MODULUS - 2):
            assert field.pow5(value) == pow(value, 5, MODULUS)

    def test_bytes_roundtrip(self):
        for value in (0, 1, MODULUS - 1):
            assert field.element_from_bytes(field.element_to_bytes(value)) == value

    def test_from_bytes_reduces(self):
        raw = (MODULUS + 5).to_bytes(32, "little")
        assert field.element_from_bytes(raw) == 5

    def test_from_bytes_wrong_length_raises(self):
        with pytest.raises(FieldError):
            field.element_from_bytes(b"\x01" * 31)

class TestFpWrapper:
    def test_arithmetic(self):
        a, b = Fp(7), Fp(3)
        assert a + b == 10
        assert a - b == 4
        assert b - a == MODULUS - 4
        assert a * b == 21
        assert (a / b) * b == a
        assert -a == MODULUS - 7
        assert a**2 == 49

    def test_mixed_int_operands(self):
        assert Fp(5) + 3 == Fp(8)
        assert 3 + Fp(5) == Fp(8)
        assert 10 - Fp(4) == Fp(6)
        assert 2 * Fp(4) == Fp(8)

    def test_immutability(self):
        a = Fp(1)
        with pytest.raises(AttributeError):
            a.value = 2

    def test_equality_and_hash(self):
        assert Fp(MODULUS + 1) == Fp(1) == 1
        assert hash(Fp(9)) == hash(Fp(9))
        assert Fp(1) != Fp(2)

    def test_bool_and_int(self):
        assert not Fp(0)
        assert Fp(3)
        assert int(Fp(3)) == 3

    def test_inverse(self):
        assert Fp(7).inverse() * Fp(7) == 1

    def test_bytes_roundtrip(self):
        assert Fp.from_bytes(Fp(123456789).to_bytes()) == Fp(123456789)

    def test_division_by_zero_raises(self):
        with pytest.raises(FieldError):
            Fp(1) / Fp(0)

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            Fp(1) + 1.5
