"""Epoch proving on the one in-process path: the fold, the plan, the values.

``RecursiveComposer.prove_sequence`` proves every transition with Base and
folds the proofs with ``merge_all`` over ``merge_plan``; the proof market
walks the same plan.  These tests pin the fold (root bytes, proof counts,
tree shape), cross-verification under independently bootstrapped keys, the
per-epoch instrumentation, and that the values a prover handles — proving
keys, states, transactions, proofs, stats — are plain data that survive a
pickle round-trip.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.transfers import BackwardTransfer, BackwardTransferRequest, ForwardTransfer
from repro.crypto.field import MODULUS
from repro.errors import SnarkError
from repro.latus.market import MarketDispatcher, MarketProver, tree_tasks
from repro.latus.proofs import EpochProver, LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    ForwardTransfersTx,
    build_btr_tx,
    build_forward_transfers_tx,
    pack_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark import proving
from repro.scenarios.adversarial import payment_epoch
from repro.snark.recursive import CompositionStats, RecursiveComposer, merge_plan

DEPTH = 8


class CounterSystem:
    """Toy transition system: the state is an integer counter."""

    name = "parallel-test-counter"

    def apply(self, transition: int, state: int) -> int:
        return state + transition

    def digest(self, state: int) -> int:
        return state % MODULUS

    def synthesize_transition(self, builder, state, transition, next_state):
        s = builder.alloc(state)
        t = builder.alloc(transition)
        n = builder.alloc(next_state)
        builder.enforce_equal(builder.add(s, t), n, "counter/step")


@pytest.fixture(scope="module")
def composer():
    return RecursiveComposer(CounterSystem())


def mint(state, keypair, amount, tag):
    u = Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"parmint", tag.to_bytes(8, "little")),
    )
    state.mst.add(u)
    return u


def out(keypair, amount, tag):
    return Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"parout", tag.to_bytes(8, "little")),
    )


def chain_of_payments(keys, count):
    state = LatusState(DEPTH)
    u = mint(state, keys["alice"], 1000, 1)
    txs = []
    current = u
    for i in range(count):
        nxt = out(keys["alice"], 1000, 100 + i)
        txs.append(sign_payment([(current, keys["alice"])], [nxt]))
        current = nxt
    return state, txs

class TestPoolEquivalence:
    """``prove_sequence`` is exactly the Base fold plus ``merge_all``."""

    @staticmethod
    def fold(composer, transitions):
        proofs, state = [], 0
        for transition in transitions:
            proof, state = composer.prove_base(state, transition)
            proofs.append(proof)
        return composer.merge_all(proofs), state

    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_counter_sequences_match(self, composer, count):
        transitions = list(range(1, count + 1))
        root, final, stats = composer.prove_sequence(0, transitions)
        folded, folded_final = self.fold(composer, transitions)
        assert final == folded_final == sum(transitions)
        assert root == folded
        assert (root.span, root.depth) == (count, stats.tree_depth)
        assert stats.base_proofs == count
        assert stats.merge_proofs == len(merge_plan(count)) == count - 1

    def test_cross_verification(self, composer):
        """A root proof verifies under an independently bootstrapped composer."""
        root, _, _ = composer.prove_sequence(0, [3, 1, 4, 1, 5])
        other = RecursiveComposer(CounterSystem())  # same deterministic keys
        assert composer.verify(root)
        assert other.verify(root)
        assert not other.verify(replace(root, to_digest=root.to_digest + 1))

    def test_serial_fallback_pool(self, composer):
        """One proof per task of the tree the market pays for."""
        for count in (1, 3, 6):
            _, _, stats = composer.prove_sequence(0, [1] * count)
            assert stats.base_proofs + stats.merge_proofs == len(tree_tasks(count))

    def test_merge_all_parallel_rejects_non_adjacent(self, composer):
        p1, _ = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(100, 4)
        with pytest.raises(SnarkError):
            composer.merge_all([p1, p2])

    def test_merge_all_parallel_empty_rejected(self, composer):
        with pytest.raises(SnarkError):
            composer.merge_all([])

    def test_instrumentation_populated(self, composer):
        root, _, stats = composer.prove_sequence(0, [1] * 6)
        assert stats.base_proofs + stats.merge_proofs == 11
        assert 0 < stats.synthesis_seconds <= stats.wall_seconds
        assert stats.critical_path_depth == root.depth + 1 == 4
        assert stats.tree_depth == root.depth

    def test_every_walker_reads_the_plan(self, composer):
        """Reward split, serial proving and the market share one tree."""
        for n in (6, 7):
            plan = merge_plan(n)
            leaves = [(0, i) for i in range(n)]
            assert [t.key for t in tree_tasks(n)] == leaves + [merge.key for merge in plan]
            _, _, stats = composer.prove_sequence(0, list(range(1, n + 1)))
            assert stats.merge_proofs == len(plan)
            start, txs = payment_epoch(n, b"walkers")
            report = MarketDispatcher([MarketProver(name="p", stake=1)]).prove_epoch(
                start, txs
            )
            assert report.merge_tasks == len(plan)


class TestEpochProverParallel:
    def test_epoch_equivalence(self, keys):
        """Two independently built provers make byte-identical epoch proofs."""
        state, txs = chain_of_payments(keys, 5)
        first = EpochProver().prove_epoch(state.copy(), txs)
        second = EpochProver().prove_epoch(state.copy(), txs)
        assert second.proof == first.proof
        assert first.stats.base_proofs == 5
        assert first.stats.merge_proofs == 4
        assert second.stats.constraints == first.stats.constraints
        assert EpochProver().verify_epoch_proof(first.proof)
        assert second.final_state.digest() == first.final_state.digest()

    def test_batched_strategy_ignores_parallel(self, keys):
        """The batched ablation is one Base proof, accepted by either prover."""
        state, txs = chain_of_payments(keys, 3)
        result = EpochProver("batched").prove_epoch(state, txs)
        assert (result.stats.base_proofs, result.stats.merge_proofs) == (1, 0)
        assert EpochProver().verify_epoch_proof(result.proof)

    def test_single_proof_epochs_report_their_timing(self, keys):
        state, txs = chain_of_payments(keys, 3)
        prover = EpochProver("batched")
        for result in (prover.prove_epoch(state, txs), prover.prove_empty_epoch(state)):
            assert result.stats.base_proofs == 1
            assert result.stats.wall_seconds > 0
            assert result.stats.critical_path_depth == 1

    def test_node_level_opt_in(self, keys):
        """A sidechain node certifies its epochs and surfaces the stats."""
        from repro.scenarios import ZendooHarness

        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("parallel-node", epoch_len=3, submit_len=2)
        harness.forward_transfer(sc, keys["alice"], 500_000)
        harness.run_epochs(sc, 1)
        assert sc.node.certificates, "epoch was not certified"
        stats = sc.node.last_epoch_stats
        assert stats is not None
        assert stats.base_proofs >= 1
        assert sc.node.last_wcert_witness is not None



class TestPickleRoundTrips:
    """The prover's values are plain data: each survives a pickle round-trip."""

    def _assert_roundtrip(self, obj):
        clone = pickle.loads(pickle.dumps(obj))
        return clone

    def test_proving_keys(self):
        composer = RecursiveComposer(LatusTransitionSystem())
        base_pk, merge_pk = composer._base_pk, composer._merge_pk
        base_clone = self._assert_roundtrip(base_pk)
        merge_clone = self._assert_roundtrip(merge_pk)
        assert base_clone.verifying_key == composer.base_vk
        assert merge_clone.verifying_key == composer.merge_vk
        # the cloned merge circuit carries its child vks (no composer closure)
        assert merge_clone.circuit.base_vk == composer.base_vk
        assert merge_clone.circuit.merge_vk == composer.merge_vk

    def test_latus_state(self, keys):
        state = LatusState(DEPTH)
        mint(state, keys["alice"], 123, 7)
        state.backward_transfers.append(
            BackwardTransfer(receiver_addr=keys["bob"].address, amount=5)
        )
        clone = self._assert_roundtrip(state)
        assert clone.digest() == state.digest()
        assert clone.mst_root == state.mst_root

    def test_all_four_transaction_types(self, keys):
        state = LatusState(DEPTH)
        u1 = mint(state, keys["alice"], 100, 1)
        u2 = mint(state, keys["alice"], 60, 2)

        payment = sign_payment([(u1, keys["alice"])], [out(keys["bob"], 100, 3)])
        bt = sign_backward_transfer(
            [(u2, keys["alice"])],
            [BackwardTransfer(receiver_addr=keys["bob"].address, amount=60)],
        )
        ft = ForwardTransfer(
            ledger_id=b"\x01" * 32,
            receiver_metadata=pack_receiver_metadata(
                keys["carol"].address, keys["carol"].address
            ),
            amount=42,
        )
        ft_tx = build_forward_transfers_tx(b"\x02" * 32, (ft,), state.mst)
        assert isinstance(ft_tx, ForwardTransfersTx) and ft_tx.outputs
        btr = BackwardTransferRequest(
            ledger_id=b"\x01" * 32,
            receiver=keys["bob"].address,
            amount=u2.amount,
            nullifier=u2.nullifier,
            proofdata=u2.as_field_elements(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        btr_tx = build_btr_tx(b"\x03" * 32, (btr,), state.mst)
        assert isinstance(btr_tx, BackwardTransferRequestsTx) and btr_tx.inputs

        for tx in (payment, bt, ft_tx, btr_tx):
            clone = self._assert_roundtrip(tx)
            assert clone.txid == tx.txid

    def test_transition_proof(self, keys):
        prover = EpochProver()
        state, txs = chain_of_payments(keys, 2)
        result = prover.prove_epoch(state, txs)
        clone = self._assert_roundtrip(result.proof)
        assert clone.public_input == result.proof.public_input
        assert clone.proof.data == result.proof.proof.data
        assert prover.verify_epoch_proof(clone)

    def test_composition_stats(self):
        stats = CompositionStats(base_proofs=3, merge_proofs=2, wall_seconds=1.5)
        assert self._assert_roundtrip(stats) == stats
