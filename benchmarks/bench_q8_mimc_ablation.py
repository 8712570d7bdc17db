"""Experiment Q8 — ablation: MiMC round count vs. circuit cost.

DESIGN.md §7 calls out the circuit-friendly-hash parameterization as a
design choice worth quantifying: every Merkle level costs ``3 * rounds``
R1CS constraints, so the hash's security margin prices every MST proof and
every recursive transition.  This bench sweeps the round count (rebuilding
the permutation locally — the library constant stays at the secure 110)
and measures both native cost and in-circuit constraint counts, plus the
batched ``mimc_compress_many`` path :meth:`FixedMerkleTree.set_leaves`
drives.
"""

import pytest

from repro.crypto import mimc
from repro.crypto.field import MODULUS
from repro.crypto.mimc import ROUNDS, _derive_round_constants
from repro.snark.circuit import CircuitBuilder


def permutation_with_rounds(x: int, k: int, constants: tuple[int, ...]) -> int:
    r = x % MODULUS
    k = k % MODULUS
    for c in constants:
        t = (r + k + c) % MODULUS
        t2 = t * t % MODULUS
        t4 = t2 * t2 % MODULUS
        r = t4 * t % MODULUS
    return (r + k) % MODULUS


def permutation_gadget_with_rounds(builder, x, k, constants):
    r = x
    for c in constants:
        t = builder.add(builder.add(r, k), builder.constant(c))
        t2 = builder.square(t)
        t4 = builder.square(t2)
        r = builder.mul(t4, t)
    return builder.add(r, k)


class TestQ8MimcAblation:
    def test_library_round_count_is_secure_margin(self, benchmark):
        """ceil(log5(2^255)) ≈ 110: the library constant matches the MiMC
        security analysis for exponent 5."""
        import math

        required = math.ceil(255 * math.log(2) / math.log(5))
        assert ROUNDS == benchmark(lambda: max(required, ROUNDS))
        assert ROUNDS >= required

    @pytest.mark.parametrize("rounds", [38, 74, 110, 220])
    def test_bench_native_cost_vs_rounds(self, benchmark, rounds):
        constants = _derive_round_constants(rounds)

        def compress_many():
            for i in range(50):
                permutation_with_rounds(i, i + 1, constants)

        benchmark(compress_many)
        benchmark.extra_info["rounds"] = rounds

    @pytest.mark.parametrize("rounds", [38, 74, 110, 220])
    def test_constraints_scale_linearly(self, benchmark, rounds):
        constants = _derive_round_constants(rounds)

        def synthesize():
            builder = CircuitBuilder()
            permutation_gadget_with_rounds(
                builder, builder.alloc(1), builder.alloc(2), constants
            )
            return builder.stats().num_constraints

        constraints = benchmark(synthesize)
        assert constraints == 3 * rounds
        benchmark.extra_info["rounds"] = rounds
        benchmark.extra_info["constraints"] = constraints

    def test_bench_compress_many_vs_loop(self, benchmark):
        """``mimc_compress_many`` against the equivalent serial-compress
        loop on a cold cache — the set_leaves interior-node recompute path."""
        pairs = [((i * 31 + 7) % MODULUS, (i * 17 + 3) % MODULUS) for i in range(256)]

        def batched():
            mimc.clear_cache()
            return mimc.mimc_compress_many(pairs)

        out = benchmark(batched)
        mimc.clear_cache()
        assert out == [mimc.mimc_compress(left, right) for left, right in pairs]
        benchmark.extra_info["pairs"] = len(pairs)

    def test_merkle_proof_pricing(self, benchmark):
        """The downstream consequence: a depth-D MST membership circuit
        costs ~D * (3*rounds + 3) constraints; reducing rounds 110 -> 74
        would cut every BTR/CSW proof by ~a third at a security cost."""
        table = {}

        def price():
            for rounds in (74, 110):
                per_level = 3 * rounds + 3
                for depth in (12, 20):
                    table[(rounds, depth)] = depth * per_level + 1
            return table

        benchmark.pedantic(price, iterations=1, rounds=1)
        assert table[(110, 12)] > table[(74, 12)]
        assert round(table[(74, 20)] / table[(110, 20)], 2) == round(225 / 333, 2)
        benchmark.extra_info["pricing"] = {str(k): v for k, v in table.items()}
        print(f"\nQ8 Merkle circuit pricing (rounds, depth) -> constraints: {table}")
