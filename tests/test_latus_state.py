"""Unit tests for the Latus state transition function (repro.latus.state) — §5.3."""

import pytest

from repro.core.transfers import BackwardTransfer, BackwardTransferRequest, ForwardTransfer
from repro.core.transfers import derive_ledger_id
from repro.errors import StateTransitionError
from repro.latus.state import LatusState
from repro.latus.transactions import (
    build_btr_tx,
    build_forward_transfers_tx,
    ft_output,
    pack_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark.proving import PROOF_SIZE, Proof

LEDGER = derive_ledger_id("state-test")
DEPTH = 8


def mint(state: LatusState, keypair, amount: int, tag: int) -> Utxo:
    """Put a UTXO owned by ``keypair`` directly into the state."""
    u = Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"mint", tag.to_bytes(8, "little")),
    )
    state.mst.add(u)
    return u


def fresh_output(keypair, amount: int, tag: int) -> Utxo:
    return Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"out", tag.to_bytes(8, "little")),
    )


@pytest.fixture
def state() -> LatusState:
    return LatusState(DEPTH)


class TestDigest:
    def test_digest_changes_with_mst(self, state, keys):
        before = state.digest()
        mint(state, keys["alice"], 10, 1)
        assert state.digest() != before

    def test_digest_changes_with_bt_list(self, state):
        before = state.digest()
        state.backward_transfers.append(
            BackwardTransfer(receiver_addr=b"\x01" * 32, amount=1)
        )
        assert state.digest() != before

    def test_copy_preserves_digest(self, state, keys):
        mint(state, keys["alice"], 10, 1)
        assert state.copy().digest() == state.digest()


class TestPayment:
    def test_valid_payment_applies(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        out = fresh_output(keys["bob"], 100, 2)
        tx = sign_payment([(u, keys["alice"])], [out])
        state.apply(tx)
        assert not state.mst.contains(u)
        assert state.mst.contains(out)

    def test_fee_allowed(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        out = fresh_output(keys["bob"], 90, 2)
        state.apply(sign_payment([(u, keys["alice"])], [out]))

    def test_output_exceeding_input_rejected(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        out = fresh_output(keys["bob"], 101, 2)
        with pytest.raises(StateTransitionError):
            state.apply(sign_payment([(u, keys["alice"])], [out]))

    def test_spending_absent_utxo_rejected(self, state, keys):
        ghost = fresh_output(keys["alice"], 10, 1)
        out = fresh_output(keys["bob"], 10, 2)
        with pytest.raises(StateTransitionError):
            state.apply(sign_payment([(ghost, keys["alice"])], [out]))

    def test_wrong_owner_rejected(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        out = fresh_output(keys["bob"], 100, 2)
        tx = sign_payment([(u, keys["mallory"])], [out])  # mallory signs
        with pytest.raises(StateTransitionError):
            state.apply(tx)

    def test_failed_apply_leaves_state_untouched(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        digest = state.digest()
        out = fresh_output(keys["bob"], 101, 2)
        with pytest.raises(StateTransitionError):
            state.apply(sign_payment([(u, keys["alice"])], [out]))
        assert state.digest() == digest

    def test_no_inputs_rejected(self, state, keys):
        tx = sign_payment([], [fresh_output(keys["bob"], 1, 1)])
        with pytest.raises(StateTransitionError):
            state.apply(tx)

    def test_tampered_signature_rejected(self, state, keys):
        from repro.latus.transactions import PaymentTx

        u = mint(state, keys["alice"], 100, 1)
        out = fresh_output(keys["bob"], 100, 2)
        tx = sign_payment([(u, keys["alice"])], [out])
        tampered = PaymentTx(
            inputs=tx.inputs,
            outputs=(fresh_output(keys["mallory"], 100, 3),),  # swap dest
        )
        with pytest.raises(StateTransitionError):
            state.apply(tampered)

    def test_zero_amount_output_rejected(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        bad = Utxo(addr=address_to_field(keys["bob"].address), amount=0, nonce=5)
        with pytest.raises(StateTransitionError):
            state.apply(sign_payment([(u, keys["alice"])], [bad]))


class TestForwardTransfers:
    def _ft(self, receiver, amount, tag=0):
        return ForwardTransfer(
            ledger_id=LEDGER,
            receiver_metadata=pack_receiver_metadata(
                receiver.address, receiver.address
            ),
            amount=amount,
        )

    def test_valid_ftt_mints(self, state, keys):
        ft = self._ft(keys["alice"], 50)
        tx = build_forward_transfers_tx(b"\x01" * 32, (ft,), state.mst)
        state.apply(tx)
        assert state.mst.contains(ft_output(ft, keys["alice"].address))

    def test_malformed_metadata_burns(self, state, keys):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"junk", amount=50)
        tx = build_forward_transfers_tx(b"\x01" * 32, (ft,), state.mst)
        assert not tx.outputs and not tx.rejected
        state.apply(tx)
        assert state.mst.occupied_count == 0

    def test_collision_refunds_via_backward_transfer(self, state, keys):
        ft = self._ft(keys["alice"], 50)
        # occupy the slot the FT output would land in
        blocker = Utxo(addr=1, amount=1, nonce=ft_output(ft, keys["alice"].address).nonce)
        state.mst.add(blocker)
        tx = build_forward_transfers_tx(b"\x01" * 32, (ft,), state.mst)
        assert not tx.outputs
        assert tx.rejected[0].amount == 50
        assert tx.rejected[0].receiver_addr == keys["alice"].address
        state.apply(tx)
        assert state.backward_transfers == [tx.rejected[0]]

    def test_duplicate_ft_in_block_collides_with_itself(self, state, keys):
        ft = self._ft(keys["alice"], 50)
        tx = build_forward_transfers_tx(b"\x01" * 32, (ft, ft), state.mst)
        assert len(tx.outputs) == 1
        assert len(tx.rejected) == 1

    def test_forged_ftt_rejected(self, state, keys):
        ft = self._ft(keys["alice"], 50)
        honest = build_forward_transfers_tx(b"\x01" * 32, (ft,), state.mst)
        from repro.latus.transactions import ForwardTransfersTx

        forged = ForwardTransfersTx(
            mc_block_id=honest.mc_block_id,
            transfers=honest.transfers,
            outputs=(
                Utxo(
                    addr=address_to_field(keys["mallory"].address),
                    amount=50,
                    nonce=honest.outputs[0].nonce,
                ),
            ),
            rejected=(),
        )
        with pytest.raises(StateTransitionError):
            state.apply(forged)


class TestBackwardTransfers:
    def test_valid_bt_destroys_and_queues(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        bt = BackwardTransfer(receiver_addr=keys["alice"].address, amount=100)
        tx = sign_backward_transfer([(u, keys["alice"])], [bt])
        state.apply(tx)
        assert not state.mst.contains(u)
        assert state.backward_transfers == [bt]

    def test_bt_exceeding_inputs_rejected(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        bt = BackwardTransfer(receiver_addr=keys["alice"].address, amount=101)
        with pytest.raises(StateTransitionError):
            state.apply(sign_backward_transfer([(u, keys["alice"])], [bt]))

    def test_non_positive_bt_rejected(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        bt = BackwardTransfer(receiver_addr=keys["alice"].address, amount=0)
        with pytest.raises(StateTransitionError):
            state.apply(sign_backward_transfer([(u, keys["alice"])], [bt]))

    def test_epoch_reset_clears_bt_list(self, state, keys):
        u = mint(state, keys["alice"], 100, 1)
        bt = BackwardTransfer(receiver_addr=keys["alice"].address, amount=100)
        state.apply(sign_backward_transfer([(u, keys["alice"])], [bt]))
        state.start_new_epoch()
        assert state.backward_transfers == []
        assert state.mst.touched_positions == frozenset()


class TestBtrTx:
    def _btr_for(self, utxo: Utxo, receiver=b"\x01" * 32):
        return BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=receiver,
            amount=utxo.amount,
            nullifier=utxo.nullifier,
            proofdata=utxo.as_field_elements(),
            proof=Proof(data=bytes(PROOF_SIZE)),
        )

    def test_valid_btr_consumed(self, state, keys):
        u = mint(state, keys["alice"], 40, 1)
        tx = build_btr_tx(b"\x02" * 32, (self._btr_for(u),), state.mst)
        assert tx.inputs == (u,)
        state.apply(tx)
        assert not state.mst.contains(u)
        assert state.backward_transfers[0].amount == 40

    def test_btr_for_spent_utxo_rejected_silently(self, state, keys):
        u = mint(state, keys["alice"], 40, 1)
        state.mst.remove(u)
        tx = build_btr_tx(b"\x02" * 32, (self._btr_for(u),), state.mst)
        assert tx.inputs == ()
        assert tx.backward_transfers == ()
        state.apply(tx)  # a no-op sync is still a valid transition

    def test_btr_amount_mismatch_rejected(self, state, keys):
        u = mint(state, keys["alice"], 40, 1)
        btr = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=39,
            nullifier=u.nullifier,
            proofdata=u.as_field_elements(),
            proof=Proof(data=bytes(PROOF_SIZE)),
        )
        tx = build_btr_tx(b"\x02" * 32, (btr,), state.mst)
        assert tx.inputs == ()

    def test_double_claim_first_wins(self, state, keys):
        u = mint(state, keys["alice"], 40, 1)
        a = self._btr_for(u, receiver=b"\x01" * 32)
        b = self._btr_for(u, receiver=b"\x02" * 32)
        tx = build_btr_tx(b"\x02" * 32, (a, b), state.mst)
        assert len(tx.inputs) == 1
        assert tx.backward_transfers[0].receiver_addr == b"\x01" * 32

    def test_forged_btr_tx_rejected(self, state, keys):
        u = mint(state, keys["alice"], 40, 1)
        honest = build_btr_tx(b"\x02" * 32, (self._btr_for(u),), state.mst)
        from repro.latus.transactions import BackwardTransferRequestsTx

        forged = BackwardTransferRequestsTx(
            mc_block_id=honest.mc_block_id,
            requests=honest.requests,
            inputs=honest.inputs,
            backward_transfers=(
                BackwardTransfer(receiver_addr=b"\xee" * 32, amount=40),
            ),
        )
        with pytest.raises(StateTransitionError):
            state.apply(forged)

    def test_malformed_proofdata_skipped(self, state, keys):
        btr = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=5,
            nullifier=b"\x00" * 32,
            proofdata=(1, 2),  # wrong arity
            proof=Proof(data=bytes(PROOF_SIZE)),
        )
        tx = build_btr_tx(b"\x02" * 32, (btr,), state.mst)
        assert tx.inputs == ()


class TestTrustedReplay:
    """``write_block``, the WAL replay's unchecked write, reaches exactly
    what ``apply_block`` reaches."""

    @staticmethod
    def start(keys) -> tuple[LatusState, Utxo]:
        """The state before the block: one coin of Carol's."""
        state = LatusState(DEPTH)
        return state, mint(state, keys["carol"], 70, 1)

    def block(self, keys) -> tuple[list, LatusState]:
        """All four transaction kinds, derived in order on a scratch state.

        The first payment spends an output the block's FTTx created, and the
        second frees a slot and fills it again in one transaction.
        """
        alice, bob, carol = keys["alice"], keys["bob"], keys["carol"]
        scratch, coin = self.start(keys)
        txs = []

        def add(tx):
            scratch.apply(tx)
            txs.append(tx)

        def ft(receiver, amount):
            metadata = pack_receiver_metadata(receiver.address, receiver.address)
            return ForwardTransfer(ledger_id=LEDGER, receiver_metadata=metadata, amount=amount)

        to_alice, to_bob = ft(alice, 500), ft(bob, 300)
        # the doubled transfer collides with itself: a refund BT
        add(build_forward_transfers_tx(b"\x01" * 32, (to_alice, to_alice, to_bob), scratch.mst))
        paid = fresh_output(bob, 500, 1)
        add(sign_payment([(ft_output(to_alice, alice.address), alice)], [paid]))
        reused = next(
            out
            for out in (fresh_output(bob, 500, tag) for tag in range(2, 5000))
            if out.position(DEPTH) == paid.position(DEPTH)
        )
        add(sign_payment([(paid, bob)], [reused]))
        bt = BackwardTransfer(receiver_addr=bob.address, amount=300)
        add(sign_backward_transfer([(ft_output(to_bob, bob.address), bob)], [bt]))
        request = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=carol.address,
            amount=coin.amount,
            nullifier=coin.nullifier,
            proofdata=coin.as_field_elements(),
            proof=Proof(data=bytes(PROOF_SIZE)),
        )
        add(build_btr_tx(b"\x02" * 32, (request,), scratch.mst))
        return txs, scratch

    def test_write_block_equals_apply_block(self, keys):
        txs, expected = self.block(keys)
        assert {type(tx).__name__ for tx in txs} == {
            "ForwardTransfersTx",
            "PaymentTx",
            "BackwardTransferTx",
            "BackwardTransferRequestsTx",
        }
        assert txs[0].rejected and txs[-1].inputs  # a refund and a claim
        (applied, _), (replayed, _) = self.start(keys), self.start(keys)
        applied.apply_block(txs, expected.digest())
        replayed.write_block(txs)

        def view(state):
            mst = state.mst
            return mst.root, mst.touched_positions, state.backward_transfers, state.digest()

        assert view(replayed) == view(applied) == view(expected)
        assert replayed.mst.contains(txs[2].outputs[0])
