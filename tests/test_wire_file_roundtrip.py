"""Every protocol object must survive a trip through a file boundary.

``encode → write to disk → read back → decode → re-encode`` must land on
the exact original bytes for every transaction type and chain object —
this is what the storage engine's WAL and snapshots rely on.  A decoder
that rejects (or re-encodes differently) its own canonical output is a
durability bug: the node would fail to replay records it wrote itself.
"""

import pytest

from repro import wire
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    derive_ledger_id,
)
from repro.crypto.keys import KeyPair
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    ForwardTransfersTx,
    PaymentTx,
    BackwardTransferTx,
)
from repro.latus.utxo import Utxo, address_to_field
from repro.mainchain.transaction import BtrTx, CswTx
from repro.scenarios import ZendooHarness
from repro.snark.proving import Proof

ALICE = KeyPair.from_seed("roundtrip/alice")
BOB = KeyPair.from_seed("roundtrip/bob")
LEDGER = derive_ledger_id("roundtrip-synthetic")


@pytest.fixture(scope="module")
def scenario():
    """A full run producing every organically-reachable object kind."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("roundtrip", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 9_000)
    harness.mine(2)
    harness.wallet(sc, ALICE).pay(BOB.address, 1_000)
    harness.mine(1)
    harness.wallet(sc, ALICE).withdraw(b"\x07" * 32, 500)
    harness.run_epochs(sc, 2)
    return harness, sc


def through_file(tmp_path, data: bytes) -> bytes:
    """The file boundary: encoded bytes go to disk and come back."""
    path = tmp_path / "object.bin"
    path.write_bytes(data)
    return path.read_bytes()


def assert_roundtrip(tmp_path, obj, decoder):
    encoded = obj.encode()
    decoded = decoder(through_file(tmp_path, encoded))
    assert type(decoded) is type(obj)
    assert decoded.encode() == encoded
    return decoded


class TestLatusTransactions:
    def test_every_chain_transaction(self, scenario, tmp_path):
        harness, sc = scenario
        seen = set()
        txs = [tx for block in sc.node.blocks for tx in block.transactions]
        # MC-defined FTTs ride inside the block's MC references
        txs += [
            ref.forward_transfers
            for block in sc.node.blocks
            for ref in block.mc_refs
            if ref.forward_transfers is not None
        ]
        for tx in txs:
            seen.add(type(tx))
            assert_roundtrip(tmp_path, tx, wire.decode_latus_transaction)
        # the scenario must organically exercise the signed kinds and FTTs
        assert {PaymentTx, BackwardTransferTx, ForwardTransfersTx} <= seen

    def test_btr_sync_transaction(self, tmp_path):
        # BTRTx needs an MC-submitted request; build the sync tx directly
        request = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=7,
            nullifier=b"\x02" * 32,
            proofdata=(3,),
            proof=Proof(data=bytes(range(96))),
        )
        tx = BackwardTransferRequestsTx(
            mc_block_id=b"\x04" * 32,
            requests=(request,),
            inputs=(Utxo(addr=address_to_field(ALICE.address), amount=7, nonce=9),),
            backward_transfers=(BackwardTransfer(receiver_addr=b"\x05" * 32, amount=7),),
        )
        assert_roundtrip(tmp_path, tx, wire.decode_latus_transaction)


class TestMainchainObjects:
    def test_every_chain_transaction(self, scenario, tmp_path):
        harness, sc = scenario
        kinds = set()
        for block in harness.mc.chain.active_chain():
            for tx in block.transactions:
                kinds.add(tx.kind)
                assert_roundtrip(tmp_path, tx, wire.decode_mc_transaction)
        # coin transactions (coinbases + forward transfers), the sidechain
        # declaration and adopted certificates all appear in the history
        assert {1, 2, 3} <= kinds

    def test_btr_and_csw_transactions(self, tmp_path):
        request = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=5,
            nullifier=b"\x02" * 32,
            proofdata=(),
            proof=Proof(data=bytes(range(96))),
        )
        csw = CeasedSidechainWithdrawal(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=5,
            nullifier=b"\x03" * 32,
            proofdata=(1, 2),
            proof=Proof(data=bytes(range(96))),
        )
        assert_roundtrip(tmp_path, BtrTx(requests=(request,)), wire.decode_mc_transaction)
        assert_roundtrip(tmp_path, CswTx(csw=csw), wire.decode_mc_transaction)

    def test_blocks_and_headers(self, scenario, tmp_path):
        harness, sc = scenario
        for block in harness.mc.chain.active_chain():
            assert_roundtrip(tmp_path, block, wire.decode_block)
            assert_roundtrip(tmp_path, block.header, wire.decode_block_header)


class TestSidechainObjects:
    def test_sidechain_blocks(self, scenario, tmp_path):
        harness, sc = scenario
        assert sc.node.blocks
        for block in sc.node.blocks:
            encoded = wire.encode_sidechain_block(block)
            decoded = wire.decode_sidechain_block(through_file(tmp_path, encoded))
            assert wire.encode_sidechain_block(decoded) == encoded
            assert decoded.hash == block.hash

    def test_mc_references(self, scenario, tmp_path):
        harness, sc = scenario
        refs = [ref for block in sc.node.blocks for ref in block.mc_refs]
        assert refs
        for ref in refs:
            encoded = wire.encode_mc_ref(ref)
            decoded = wire.decode_mc_ref(through_file(tmp_path, encoded))
            assert wire.encode_mc_ref(decoded) == encoded

    def test_withdrawal_certificates(self, scenario, tmp_path):
        harness, sc = scenario
        assert sc.node.certificates
        for cert in sc.node.certificates:
            assert_roundtrip(tmp_path, cert, wire.decode_withdrawal_certificate)

    def test_sidechain_config(self, scenario, tmp_path):
        harness, sc = scenario
        assert_roundtrip(tmp_path, sc.config, wire.decode_sidechain_config)

    def test_utxos(self, scenario, tmp_path):
        harness, sc = scenario
        assert sc.node.utxo_index
        for utxo in sc.node.utxo_index.values():
            assert_roundtrip(tmp_path, utxo, wire.decode_utxo)


class TestCoreTransfers:
    def test_forward_transfer(self, tmp_path):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"meta", amount=12)
        assert_roundtrip(tmp_path, ft, wire.decode_forward_transfer)

    def test_backward_transfer(self, tmp_path):
        bt = BackwardTransfer(receiver_addr=b"\x06" * 32, amount=3)
        assert_roundtrip(tmp_path, bt, wire.decode_backward_transfer)

    def test_backward_transfer_request(self, tmp_path):
        btr = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=5,
            nullifier=b"\x02" * 32,
            proofdata=(7, 8, 9),
            proof=Proof(data=b"\xab" * 96),
        )
        assert_roundtrip(tmp_path, btr, wire.decode_backward_transfer_request)

    def test_ceased_sidechain_withdrawal(self, tmp_path):
        csw = CeasedSidechainWithdrawal(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=5,
            nullifier=b"\x02" * 32,
            proofdata=(),
            proof=Proof(data=b"\xcd" * 96),
        )
        assert_roundtrip(tmp_path, csw, wire.decode_ceased_sidechain_withdrawal)
