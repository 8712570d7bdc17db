"""Parallel epoch proving: pool equivalence, scheduling, and picklability.

The parallel pipeline (``repro.snark.pool`` + the pool-aware paths on
``RecursiveComposer`` / ``EpochProver``) must be a pure accelerator: the
root proof, its public input, the proof counts and the tree shape are
required to be *identical* to the serial path.  These tests pin that down,
force the real multiprocess path even on single-core machines
(``clamp_to_cpus=False``), and verify that every object crossing the
process boundary survives a pickle round-trip.
"""

from __future__ import annotations

import pickle

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
from repro.snark.pool import ProverPool
from repro.scenarios.adversarial import payment_epoch
from repro.snark.recursive import CompositionStats, RecursiveComposer, merge_plan

DEPTH = 8


class CounterSystem:
    """Toy transition system (module level so pool workers can unpickle it)."""

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
    """Serial and parallel composition must be indistinguishable."""

    @pytest.mark.slow
    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_counter_sequences_match(self, composer, count):
        transitions = list(range(1, count + 1))
        root_s, final_s, stats_s = composer.prove_sequence(0, transitions)
        with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
            root_p, final_p, stats_p = composer.prove_sequence(
                0, transitions, pool=pool
            )
        assert final_s == final_p
        assert root_s.public_input == root_p.public_input
        assert root_s.proof.data == root_p.proof.data
        assert (root_s.span, root_s.depth) == (root_p.span, root_p.depth)
        assert stats_s.base_proofs == stats_p.base_proofs
        assert stats_s.merge_proofs == stats_p.merge_proofs
        assert stats_s.tree_depth == stats_p.tree_depth
        assert stats_s.constraints == stats_p.constraints
        assert stats_s.native_checks == stats_p.native_checks

    def test_cross_verification(self, composer):
        """Each path's root proof verifies under the other's composer view."""
        transitions = [3, 1, 4, 1, 5]
        root_s, _, _ = composer.prove_sequence(0, transitions)
        with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
            root_p, _, _ = composer.prove_sequence(0, transitions, pool=pool)
        other = RecursiveComposer(CounterSystem())  # same deterministic keys
        assert composer.verify(root_p)
        assert other.verify(root_p)
        assert other.verify(root_s)

    def test_serial_fallback_pool(self, composer):
        """max_workers=1 degrades to in-process proving, same results."""
        pool = ProverPool(max_workers=1)
        assert pool.serial
        root_p, _, stats_p = composer.prove_sequence(0, [1, 2, 3], pool=pool)
        root_s, _, stats_s = composer.prove_sequence(0, [1, 2, 3])
        assert root_p.proof.data == root_s.proof.data
        assert stats_p.pool_workers == 0
        assert stats_p.pool_tasks == stats_s.base_proofs + stats_s.merge_proofs

    def test_merge_all_parallel_rejects_non_adjacent(self, composer):
        p1, _ = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(100, 4)
        with ProverPool(max_workers=1) as pool:
            with pytest.raises(SnarkError):
                composer.merge_all_parallel([p1, p2], pool)

    def test_merge_all_parallel_empty_rejected(self, composer):
        with ProverPool(max_workers=1) as pool:
            with pytest.raises(SnarkError):
                composer.merge_all_parallel([], pool)

    def test_instrumentation_populated(self, composer):
        with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
            root, _, stats = composer.prove_sequence(0, [1] * 6, pool=pool)
        assert stats.pool_workers == 2
        assert stats.pool_tasks == stats.base_proofs + stats.merge_proofs == 11
        assert stats.pool_chunks > 0
        assert stats.wall_seconds > 0
        assert stats.synthesis_seconds > 0
        assert stats.critical_path_depth == root.depth + 1
        assert 0 < stats.pool_occupancy <= 1

    def test_every_walker_reads_the_plan(self, composer):
        """Reward split, serial and pooled proving and the market share one tree."""
        with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
            for n in (6, 7):
                plan = merge_plan(n)
                leaves = [(0, i) for i in range(n)]
                assert [t.key for t in tree_tasks(n)] == leaves + [merge.key for merge in plan]
                proofs, state = [], 0
                for step in range(1, n + 1):
                    proof, state = composer.prove_base(state, step)
                    proofs.append(proof)
                serial = composer.merge_all(proofs)
                assert composer.merge_all_parallel(proofs, pool) == serial
                start, txs = payment_epoch(n, b"walkers")
                report = MarketDispatcher([MarketProver(name="p", stake=1)]).prove_epoch(
                    start, txs
                )
                assert report.merge_tasks == len(plan)


class TestEpochProverParallel:
    @pytest.mark.slow
    def test_epoch_equivalence(self, keys):
        state, txs = chain_of_payments(keys, 5)
        serial = EpochProver().prove_epoch(state.copy(), txs)
        with EpochProver(parallel_workers=2) as prover:
            par = prover.prove_epoch(state.copy(), txs)
        assert par.proof.public_input == serial.proof.public_input
        assert par.proof.proof.data == serial.proof.proof.data
        assert par.stats.base_proofs == serial.stats.base_proofs == 5
        assert par.stats.merge_proofs == serial.stats.merge_proofs == 4
        assert par.stats.constraints == serial.stats.constraints
        # cross-verification: either prover accepts either proof
        assert EpochProver().verify_epoch_proof(par.proof)
        assert prover.verify_epoch_proof(serial.proof)
        assert par.final_state.digest() == serial.final_state.digest()

    def test_batched_strategy_ignores_parallel(self, keys):
        state, txs = chain_of_payments(keys, 3)
        with EpochProver("batched", parallel_workers=2) as prover:
            result = prover.prove_epoch(state, txs)
        assert result.stats.base_proofs == 1
        assert result.stats.pool_tasks == 0

    def test_single_proof_epochs_report_their_timing(self, keys):
        state, txs = chain_of_payments(keys, 3)
        prover = EpochProver("batched")
        for result in (prover.prove_epoch(state, txs), prover.prove_empty_epoch(state)):
            assert result.stats.base_proofs == 1
            assert result.stats.wall_seconds > 0
            assert result.stats.critical_path_depth == 1

    def test_node_level_opt_in(self, keys):
        """A sidechain node configured with proving_workers certifies epochs
        through the pool and surfaces the instrumentation."""
        from repro.scenarios import ZendooHarness

        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "parallel-node", epoch_len=3, submit_len=2, proving_workers=2
        )
        try:
            harness.forward_transfer(sc, keys["alice"], 500_000)
            harness.run_epochs(sc, 1)
            assert sc.node.certificates, "epoch was not certified"
            stats = sc.node.last_epoch_stats
            assert stats is not None
            assert stats.base_proofs >= 1
            assert sc.node.last_wcert_witness is not None
        finally:
            sc.node.close()


class TestPickleRoundTrips:
    """Everything shipped across the process boundary must round-trip."""

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
        stats = CompositionStats(base_proofs=3, pool_workers=2, wall_seconds=1.5)
        assert self._assert_roundtrip(stats) == stats
