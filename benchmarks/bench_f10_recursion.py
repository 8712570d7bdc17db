"""Experiments F10/F11 — Fig. 10 & Fig. 11: recursive proof composition.

Regenerates the merge-tree structure: per-transaction Base proofs folded
pairwise into a single block proof (Fig. 10) and block proofs folded into a
single epoch proof (Fig. 11).  Measures proving cost versus transaction
count (linear in bases, log-depth tree) while the root proof stays
constant-size.
"""

import pytest

from repro.crypto.keys import KeyPair
from repro.latus.proofs import EpochProver
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark.proving import PROOF_SIZE

ALICE = KeyPair.from_seed("f10/alice")


def payment_chain(count: int):
    """A state plus ``count`` sequential self-payments."""
    state = LatusState(12)
    current = Utxo(
        addr=address_to_field(ALICE.address), amount=1000, nonce=derive_nonce(b"f10")
    )
    state.mst.add(current)
    txs = []
    working = state.copy()
    for i in range(count):
        nxt = Utxo(
            addr=address_to_field(ALICE.address),
            amount=1000,
            nonce=derive_nonce(b"f10", i.to_bytes(8, "little")),
        )
        tx = sign_payment([(current, ALICE)], [nxt])
        working.apply(tx)
        txs.append(tx)
        current = nxt
    return state, txs


class TestFig10Recursion:
    def test_regenerates_fig10_and_fig11(self, benchmark):
        """8 transactions -> 8 Base proofs, 7 Merge proofs, depth-3 tree,
        one constant-size root proof — exactly the figures' structure."""
        prover = EpochProver("per_transaction")
        state, txs = payment_chain(8)
        result = benchmark.pedantic(
            lambda: prover.prove_epoch(state, txs), iterations=1, rounds=1
        )
        assert result.stats.base_proofs == 8
        assert result.stats.merge_proofs == 7
        assert result.stats.tree_depth == 3
        assert result.proof.span == 8
        assert result.proof.proof.size_bytes == PROOF_SIZE
        assert prover.verify_epoch_proof(result.proof)
        benchmark.extra_info["tree"] = {
            "base": result.stats.base_proofs,
            "merge": result.stats.merge_proofs,
            "depth": result.stats.tree_depth,
        }
        print(
            f"\nFig. 10/11: 8 tx -> {result.stats.base_proofs} base + "
            f"{result.stats.merge_proofs} merge proofs, depth "
            f"{result.stats.tree_depth}, root proof {PROOF_SIZE} bytes"
        )

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_bench_epoch_proving_vs_txs(self, benchmark, count):
        prover = EpochProver("per_transaction")
        state, txs = payment_chain(count)
        result = benchmark.pedantic(
            lambda: prover.prove_epoch(state, txs), iterations=1, rounds=1
        )
        benchmark.extra_info["transactions"] = count
        benchmark.extra_info["constraints"] = result.stats.constraints
        assert result.proof.span == count

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_bench_root_verification_constant(self, benchmark, count):
        prover = EpochProver("per_transaction")
        state, txs = payment_chain(count)
        result = prover.prove_epoch(state, txs)
        assert benchmark(prover.verify_epoch_proof, result.proof)
        benchmark.extra_info["transactions"] = count

    def test_merge_tree_depth_is_logarithmic(self, benchmark):
        prover = EpochProver("per_transaction")
        depths = {}

        def measure():
            for count in (2, 4, 8, 16):
                state, txs = payment_chain(count)
                depths[count] = prover.prove_epoch(state, txs).stats.tree_depth
            return depths

        benchmark.pedantic(measure, iterations=1, rounds=1)
        assert depths == {2: 1, 4: 2, 8: 3, 16: 4}
        benchmark.extra_info["depths"] = depths
        print(f"\nF10 merge-tree depth (txs -> depth): {depths}")
