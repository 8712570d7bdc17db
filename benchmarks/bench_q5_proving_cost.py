"""Experiment Q5 — §5.4.1: proving cost anatomy and the strategy ablation.

The paper flags SNARK proof generation as the system's dominant cost and
sketches parallel dispatch as mitigation.  This bench quantifies the cost
model on the real arithmetization: constraints per transaction type,
prove-time per circuit family, the per-transaction-recursion versus
whole-epoch-batch ablation (DESIGN.md §7).
"""

import pytest

from repro.core.transfers import BackwardTransfer
from repro.crypto.keys import KeyPair
from repro.latus.proofs import EpochProver, LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import (
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark.circuit import CircuitBuilder
from benchmarks.bench_f10_recursion import payment_chain

ALICE = KeyPair.from_seed("q5/alice")


def minted_state(amount=1000, tag=b"q5"):
    state = LatusState(12)
    u = Utxo(addr=address_to_field(ALICE.address), amount=amount, nonce=derive_nonce(tag))
    state.mst.add(u)
    return state, u


class TestQ5ProvingCost:
    def test_constraint_counts_per_tx_type(self, benchmark):
        """The cost table: constraints emitted per transaction type."""
        system = LatusTransitionSystem()
        counts = {}

        def measure():
            state, u = minted_state()
            pay = sign_payment(
                [(u, ALICE)],
                [Utxo(addr=u.addr, amount=1000, nonce=derive_nonce(b"q5o"))],
            )
            builder = CircuitBuilder()
            system.synthesize_transition(builder, state, pay, system.apply(pay, state))
            counts["payment_1in_1out"] = builder.stats().num_constraints

            state2, u2 = minted_state(tag=b"q5b")
            bt = sign_backward_transfer(
                [(u2, ALICE)],
                [BackwardTransfer(receiver_addr=ALICE.address, amount=1000)],
            )
            builder = CircuitBuilder()
            system.synthesize_transition(builder, state2, bt, system.apply(bt, state2))
            counts["backward_transfer_1in_1bt"] = builder.stats().num_constraints
            return counts

        benchmark.pedantic(measure, iterations=1, rounds=1)
        assert counts["payment_1in_1out"] > counts["backward_transfer_1in_1bt"] > 1000
        benchmark.extra_info["constraints"] = counts
        print(f"\nQ5 constraints per tx type: {counts}")

    @pytest.mark.parametrize("strategy", ["per_transaction", "batched"])
    def test_bench_strategy_ablation(self, benchmark, strategy):
        """per-transaction recursion pays the merge overhead but produces
        parallelizable unit proofs; batching is cheaper end-to-end on one
        machine — the trade-off behind §5.4.1's dispatching scheme."""
        prover = EpochProver(strategy)
        state, txs = payment_chain(8)
        result = benchmark.pedantic(
            lambda: prover.prove_epoch(state, txs), iterations=1, rounds=2
        )
        benchmark.extra_info["strategy"] = strategy
        benchmark.extra_info["base_proofs"] = result.stats.base_proofs
        benchmark.extra_info["merge_proofs"] = result.stats.merge_proofs
        benchmark.extra_info["constraints"] = result.stats.constraints
        assert prover.verify_epoch_proof(result.proof)

    def test_parallelism_headroom(self, benchmark):
        """The dispatching argument: with per-transaction recursion the
        critical path is one base proof plus a log-depth chain of merges,
        against a linear chain for batching."""
        prover = EpochProver("per_transaction")
        shape = {}

        def measure():
            for count in (4, 16):
                state, txs = payment_chain(count)
                result = prover.prove_epoch(state, txs)
                # critical path length in proofs (base + merge levels)
                shape[count] = 1 + result.stats.tree_depth
            return shape

        benchmark.pedantic(measure, iterations=1, rounds=1)
        assert shape[4] == 3 and shape[16] == 5
        benchmark.extra_info["critical_path"] = shape
        print(f"\nQ5 parallel critical path (txs -> sequential proof steps): {shape}")

    @pytest.mark.parametrize("in_out", [(1, 1), (2, 2), (4, 4)])
    def test_bench_payment_proving_vs_arity(self, benchmark, in_out):
        """Base-proof cost grows with transaction arity (one MiMC leaf
        recomputation + range check per input/output)."""
        n_in, n_out = in_out
        state = LatusState(12)
        inputs = []
        for i in range(n_in):
            u = Utxo(
                addr=address_to_field(ALICE.address),
                amount=100,
                nonce=derive_nonce(b"q5ar", i.to_bytes(4, "little")),
            )
            state.mst.add(u)
            inputs.append((u, ALICE))
        outputs = [
            Utxo(
                addr=address_to_field(ALICE.address),
                amount=(100 * n_in) // n_out,
                nonce=derive_nonce(b"q5aro", i.to_bytes(4, "little")),
            )
            for i in range(n_out)
        ]
        tx = sign_payment(inputs, outputs)
        prover = EpochProver("per_transaction")
        result = benchmark.pedantic(
            lambda: prover.prove_epoch(state, [tx]), iterations=1, rounds=2
        )
        benchmark.extra_info["arity"] = f"{n_in}in/{n_out}out"
        benchmark.extra_info["constraints"] = result.stats.constraints
