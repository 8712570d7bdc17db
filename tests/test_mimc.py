"""Unit tests for the MiMC permutation and hash (repro.crypto.mimc)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.crypto import backend, mimc
from repro.crypto.field import MODULUS
from repro.errors import FieldError
from repro.snark.circuit import CircuitBuilder
from repro.snark.gadgets.mimc import (
    mimc_compress_gadget,
    mimc_hash_gadget,
    mimc_permutation_gadget,
)


class TestRoundConstants:
    def test_count(self):
        assert len(mimc.ROUND_CONSTANTS) == mimc.ROUNDS == 110

    def test_first_constant_is_zero(self):
        assert mimc.ROUND_CONSTANTS[0] == 0

    def test_constants_in_field(self):
        assert all(0 <= c < MODULUS for c in mimc.ROUND_CONSTANTS)

    def test_constants_distinct(self):
        assert len(set(mimc.ROUND_CONSTANTS)) == mimc.ROUNDS

    def test_derivation_is_deterministic(self):
        assert mimc._derive_round_constants() == mimc.ROUND_CONSTANTS


class TestPermutation:
    def test_deterministic(self):
        assert mimc.mimc_permutation(1, 2) == mimc.mimc_permutation(1, 2)

    def test_key_matters(self):
        assert mimc.mimc_permutation(1, 2) != mimc.mimc_permutation(1, 3)

    def test_input_matters(self):
        assert mimc.mimc_permutation(1, 2) != mimc.mimc_permutation(2, 2)

    def test_is_injective_on_sample(self):
        # permutation property: distinct inputs (same key) -> distinct outputs
        outputs = {mimc.mimc_permutation(x, 7) for x in range(100)}
        assert len(outputs) == 100

    def test_reduces_inputs(self):
        assert mimc.mimc_permutation(MODULUS + 1, 0) == mimc.mimc_permutation(1, 0)


class TestCompression:
    def test_not_symmetric(self):
        assert mimc.mimc_compress(1, 2) != mimc.mimc_compress(2, 1)

    def test_distinct_from_inputs(self):
        out = mimc.mimc_compress(1, 2)
        assert out not in (1, 2)

    def test_collision_free_on_sample(self):
        seen = {mimc.mimc_compress(a, b) for a in range(20) for b in range(20)}
        assert len(seen) == 400


class TestHash:
    def test_empty_is_defined_and_stable(self):
        assert mimc.mimc_hash(()) == mimc.mimc_hash([])

    def test_length_tagged(self):
        # [0] must differ from [] and from [0, 0] (length is absorbed).
        assert mimc.mimc_hash([]) != mimc.mimc_hash([0])
        assert mimc.mimc_hash([0]) != mimc.mimc_hash([0, 0])

    def test_empty_is_compression_of_zero_length_tag(self):
        # the documented definition: the initial chaining value IS the hash
        assert mimc.mimc_hash([]) == mimc.mimc_compress(0, 0)

    def test_domain_separation_across_lengths(self):
        # same prefix, different lengths: the length tag separates domains
        rng = random.Random(2020)
        prefix = [rng.randrange(MODULUS) for _ in range(4)]
        digests = {mimc.mimc_hash(prefix[:n]) for n in range(5)}
        assert len(digests) == 5

    def test_length_extension_distinctness(self):
        # extending a sequence never reproduces the shorter hash, and feeding
        # the shorter hash back in as an element does not either
        rng = random.Random(2021)
        xs = [rng.randrange(MODULUS) for _ in range(3)]
        h = mimc.mimc_hash(xs)
        assert mimc.mimc_hash(xs + [0]) != h
        assert mimc.mimc_hash(xs + [h]) != h
        assert mimc.mimc_hash([h]) != mimc.mimc_hash(xs + [h])

    def test_order_matters(self):
        assert mimc.mimc_hash([1, 2]) != mimc.mimc_hash([2, 1])

    def test_hash_bytes_maps_into_field(self):
        value = mimc.mimc_hash_bytes(b"hello world")
        assert 0 <= value < MODULUS

    def test_hash_bytes_distinct(self):
        assert mimc.mimc_hash_bytes(b"a") != mimc.mimc_hash_bytes(b"b")


def spec_permutation(x: int, k: int) -> int:
    """The permutation as the module docstring defines it, one ``pow`` a round."""
    r = x
    for c in mimc.ROUND_CONSTANTS:
        r = pow(r + k + c, 5, MODULUS)
    return (r + k) % MODULUS


class TestCompiledPermutation:
    """The exec-compiled unrolled permutation must match the specification."""

    def test_matches_reference_loop(self):
        rng = random.Random(0x5EED)
        for _ in range(10):
            x, k = rng.randrange(MODULUS), rng.randrange(MODULUS)
            assert mimc.mimc_permutation(x, k) == spec_permutation(x, k)

    def test_compile_is_deterministic(self):
        recompiled = mimc._compile_permutation(mimc.ROUND_CONSTANTS, MODULUS)
        assert recompiled(3, 4) == mimc._permutation_compiled(3, 4)


def fold(x: int) -> int:
    """``2**255 ≡ 19 (mod p)``: the division-free reduction step."""
    return (x & ((1 << 255) - 1)) + 19 * (x >> 255)


EDGE_ELEMENTS = (0, 1, MODULUS - 1)
field_elements = st.integers(min_value=0, max_value=MODULUS - 1)


class TestDivisionFreeRounds:
    """The compiled rounds fold at bit 255 instead of dividing; outputs are
    those of the specification on every input."""

    @settings(max_examples=60, deadline=None)
    @given(x=field_elements, k=field_elements)
    def test_matches_specification(self, x, k):
        expected = spec_permutation(x, k)
        assert mimc._permutation_compiled(x, k) == expected
        assert backend._instance("batched").mimc_permutations([x], [k]) == [expected]

    def test_edge_inputs(self):
        pairs = list(itertools.product(EDGE_ELEMENTS, repeat=2))
        expected = [spec_permutation(x, k) for x, k in pairs]
        assert [mimc._permutation_compiled(x, k) for x, k in pairs] == expected
        xs, ks = zip(*pairs)
        assert backend._instance("batched").mimc_permutations(xs, ks) == expected

    def test_generated_round_is_the_fold_written_out(self):
        c = mimc.ROUND_CONSTANTS[1]
        reduce = f"(x & {(1 << 255) - 1}) + 19 * (x >> 255)"
        assert mimc._round_lines((0, c), MODULUS, "  ") == [
            "  t = r + k",
            "  x = t * t",
            f"  t2 = {reduce}",
            "  x = t2 * t2",
            f"  t4 = {reduce}",
            "  x = t4 * t",
            f"  x = {reduce}",
            f"  r = {reduce}",
            f"  t = r + k + {c}",
            "  x = t * t",
            f"  t2 = {reduce}",
            "  x = t2 * t2",
            f"  t4 = {reduce}",
            "  x = t4 * t",
            f"  x = {reduce}",
            f"  r = {reduce}",
        ]

    @staticmethod
    def replay_round(r: int, k: int, c: int) -> int:
        """One round as generated, every stated bound asserted on the way."""
        t = r + k + c
        t2 = fold(t * t)
        t4 = fold(t2 * t2)
        x = fold(t4 * t)
        out = fold(x)
        assert max(t2, t4, x).bit_length() <= 290
        assert out < (1 << 255) + (1 << 38)
        assert out % MODULUS == pow(t, 5, MODULUS)
        return out

    def test_intermediates_stay_within_the_stated_bounds(self):
        for x, k in itertools.product(EDGE_ELEMENTS, repeat=2):
            r = x
            for c in mimc.ROUND_CONSTANTS:
                r = self.replay_round(r, k, c)
            assert (r + k) % MODULUS == mimc._permutation_compiled(x, k)
        # the inductive step at its extreme: the largest ``r`` the bound
        # admits, the largest key, the largest constant (and past it)
        loosest_r = (1 << 255) + (1 << 38) - 1
        for c in (max(mimc.ROUND_CONSTANTS), MODULUS - 1):
            self.replay_round(loosest_r, MODULUS - 1, c)

    def test_another_modulus_is_refused(self):
        with pytest.raises(FieldError):
            mimc._round_lines(mimc.ROUND_CONSTANTS, (1 << 255) - 31, "")


def mimc_counters() -> dict[str, int]:
    """The ``repro_mimc_*`` series of the process-wide registry."""
    registry = observability.registry()
    return {
        name: registry.get(f"repro_mimc_{name}_total").value()
        for name in ("compressions", "permutations", "cache_hits", "cache_misses")
    }


class TestStatsAccounting:
    """Hash-op accounting on the ``repro_mimc_*`` registry counters."""

    def test_compress_counts_calls_and_cache(self):
        mimc.clear_cache()
        before = mimc_counters()
        mimc.mimc_compress(123456, 654321)
        mimc.mimc_compress(123456, 654321)  # cache hit
        s = {name: value - before[name] for name, value in mimc_counters().items()}
        assert s["compressions"] == 2
        assert s["cache_misses"] == 1
        assert s["cache_hits"] == 1
        assert s["permutations"] == 1  # only the miss ran the permutation

    def test_permutation_counted(self):
        before = mimc_counters()["permutations"]
        mimc.mimc_permutation(1, 2)
        assert mimc_counters()["permutations"] == before + 1

    def test_reset_stats(self):
        mimc.mimc_compress(9, 9)
        observability.reset()
        assert mimc_counters() == {
            "compressions": 0,
            "permutations": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }


class TestCompressCache:
    def test_cached_result_is_correct(self):
        mimc.clear_cache()
        first = mimc.mimc_compress(11, 22)
        assert mimc.mimc_compress(11, 22) == first

    def test_cache_keys_are_canonical(self):
        mimc.clear_cache()
        a = mimc.mimc_compress(MODULUS + 1, 2)
        size = mimc.cache_size()
        assert mimc.mimc_compress(1, MODULUS + 2) == a
        assert mimc.cache_size() == size  # same canonical key, no new entry

    def test_clear_cache(self):
        mimc.mimc_compress(5, 6)
        mimc.clear_cache()
        assert mimc.cache_size() == 0

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(mimc, "CACHE_MAX_ENTRIES", 4)
        mimc.clear_cache()
        for i in range(10):
            mimc.mimc_compress(i, i)
        assert mimc.cache_size() <= 4
        # evicted entries recompute correctly
        assert mimc.mimc_compress(0, 0) == mimc.mimc_compress(0, 0)


class TestGadgetNativeParity:
    """Acceptance: the compiled fast path is constraint-for-constraint
    faithful to the R1CS gadget on randomized inputs."""

    def test_permutation_parity_randomized(self):
        rng = random.Random(0xA11CE)
        for _ in range(12):
            x, k = rng.randrange(MODULUS), rng.randrange(MODULUS)
            b = CircuitBuilder()
            out = mimc_permutation_gadget(b, b.alloc(x), b.alloc(k))
            assert out.value == mimc.mimc_permutation(x, k)

    def test_compress_parity_randomized(self):
        rng = random.Random(0xB0B)
        for _ in range(8):
            left, right = rng.randrange(MODULUS), rng.randrange(MODULUS)
            b = CircuitBuilder()
            out = mimc_compress_gadget(b, b.alloc(left), b.alloc(right))
            assert out.value == mimc.mimc_compress(left, right)

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_hash_parity_randomized(self, length):
        rng = random.Random(1000 + length)
        values = [rng.randrange(MODULUS) for _ in range(length)]
        b = CircuitBuilder()
        out = mimc_hash_gadget(b, [b.alloc(v) for v in values])
        assert out.value == mimc.mimc_hash(values)
