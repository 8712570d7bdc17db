"""Wire-format tests: round-trips, strictness, fuzz resilience."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.encoding import Decoder, Encoder
from repro.errors import DecodeError, SignatureError, SnarkError, ZendooError
from repro.latus.transactions import (
    build_forward_transfers_tx,
    pack_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.mst import MerkleStateTree
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark.proving import Proof, VerifyingKey

LEDGER = derive_ledger_id("wire")


def proof() -> Proof:
    return Proof(data=bytes(range(96)))


class TestDecoderPrimitives:
    def test_scalar_roundtrips(self):
        from repro.encoding import Encoder

        data = (
            Encoder()
            .u8(7)
            .u32(1000)
            .u64(1 << 40)
            .i64(-5)
            .field_element(123)
            .var_bytes(b"hello")
            .text("world")
            .boolean(True)
            .done()
        )
        dec = Decoder(data)
        assert dec.u8() == 7
        assert dec.u32() == 1000
        assert dec.u64() == 1 << 40
        assert dec.i64() == -5
        assert dec.field_element() == 123
        assert dec.var_bytes() == b"hello"
        assert dec.text() == "world"
        assert dec.boolean() is True
        dec.done()

    def test_truncation_detected(self):
        with pytest.raises(DecodeError):
            Decoder(b"\x01").u32()

    def test_trailing_bytes_detected(self):
        dec = Decoder(b"\x01\x02")
        dec.u8()
        with pytest.raises(DecodeError):
            dec.done()

    def test_invalid_boolean(self):
        with pytest.raises(DecodeError):
            Decoder(b"\x02").boolean()

    def test_bad_utf8_text(self):
        from repro.encoding import Encoder

        data = Encoder().var_bytes(b"\xff\xfe").done()
        with pytest.raises(DecodeError):
            Decoder(data).text()

    def test_optional(self):
        from repro.encoding import Encoder

        present = Encoder().optional(5, lambda e, v: e.u8(v)).done()
        absent = Encoder().optional(None, lambda e, v: e.u8(v)).done()
        assert Decoder(present).optional(lambda d: d.u8()) == 5
        assert Decoder(absent).optional(lambda d: d.u8()) is None


class TestCoreRoundTrips:
    def test_forward_transfer(self):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"meta", amount=9)
        assert wire.decode_forward_transfer(ft.encode()) == ft

    def test_backward_transfer(self):
        bt = BackwardTransfer(receiver_addr=b"\x01" * 32, amount=7)
        assert wire.decode_backward_transfer(bt.encode()) == bt

    def test_withdrawal_certificate(self):
        cert = WithdrawalCertificate(
            ledger_id=LEDGER,
            epoch_id=3,
            quality=4,
            bt_list=(BackwardTransfer(receiver_addr=b"\x02" * 32, amount=5),),
            proofdata=(10, 20, 30),
            proof=proof(),
        )
        decoded = wire.decode_withdrawal_certificate(cert.encode())
        assert decoded == cert
        assert decoded.id == cert.id

    def test_btr_and_csw(self):
        kwargs = dict(
            ledger_id=LEDGER,
            receiver=b"\x03" * 32,
            amount=5,
            nullifier=b"\x04" * 32,
            proofdata=(1, 2, 3),
            proof=proof(),
        )
        btr = BackwardTransferRequest(**kwargs)
        csw = CeasedSidechainWithdrawal(**kwargs)
        assert wire.decode_backward_transfer_request(btr.encode()) == btr
        assert wire.decode_ceased_sidechain_withdrawal(csw.encode()) == csw

    def test_sidechain_config(self):
        from repro.scenarios.harness import latus_sidechain_config

        config = latus_sidechain_config("wire-sc", 10, 5, 2)
        decoded = wire.decode_sidechain_config(config.encode())
        assert decoded == config
        assert decoded.id == config.id

    def test_trailing_garbage_rejected(self):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=1)
        with pytest.raises(DecodeError):
            wire.decode_forward_transfer(ft.encode() + b"\x00")


class TestMainchainRoundTrips:
    def test_signed_coin_transaction(self, keys):
        from repro.mainchain.transaction import TransactionBuilder
        from repro.mainchain.utxo import Outpoint

        tx = (
            TransactionBuilder()
            .spend(Outpoint(txid=b"\x05" * 32, index=1), keys["alice"], 100)
            .pay(keys["bob"].address, 60)
            .forward_transfer(LEDGER, b"meta", 40)
            .build()
        )
        decoded = wire.decode_mc_transaction(tx.encode())
        assert decoded == tx
        assert decoded.txid == tx.txid
        from repro.mainchain.transaction import verify_input_signatures

        assert verify_input_signatures(decoded)

    def test_all_special_transactions(self, keys):
        from repro.mainchain.transaction import BtrTx, CertificateTx, CswTx, SidechainDeclarationTx
        from repro.scenarios.harness import latus_sidechain_config

        config = latus_sidechain_config("wire-sc2", 10, 5, 2)
        txs = [
            SidechainDeclarationTx(config=config),
            CertificateTx(
                wcert=WithdrawalCertificate(
                    ledger_id=LEDGER,
                    epoch_id=0,
                    quality=1,
                    bt_list=(),
                    proofdata=(),
                    proof=proof(),
                )
            ),
            BtrTx(
                requests=(
                    BackwardTransferRequest(
                        ledger_id=LEDGER,
                        receiver=b"\x01" * 32,
                        amount=5,
                        nullifier=b"\x02" * 32,
                        proofdata=(),
                        proof=proof(),
                    ),
                )
            ),
            CswTx(
                csw=CeasedSidechainWithdrawal(
                    ledger_id=LEDGER,
                    receiver=b"\x01" * 32,
                    amount=5,
                    nullifier=b"\x02" * 32,
                    proofdata=(),
                    proof=proof(),
                )
            ),
        ]
        for tx in txs:
            decoded = wire.decode_mc_transaction(tx.encode())
            assert decoded.txid == tx.txid

    def test_full_block(self, keys, fast_mc_params):
        from repro.mainchain.node import MainchainNode
        from repro.mainchain.validation import validate_block_structure

        node = MainchainNode(fast_mc_params)
        node.mine_blocks(keys["miner"].address, 2)
        block = node.chain.tip
        decoded = wire.decode_block(block.encode())
        assert decoded.hash == block.hash
        assert decoded.height == block.height
        validate_block_structure(decoded, fast_mc_params)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DecodeError):
            wire.decode_mc_transaction(b"\x99")


class TestLatusRoundTrips:
    def _utxo(self, keys, amount=50, tag=1):
        return Utxo(
            addr=address_to_field(keys["alice"].address),
            amount=amount,
            nonce=derive_nonce(b"wire", bytes([tag])),
        )

    def test_utxo(self, keys):
        u = self._utxo(keys)
        assert wire.decode_utxo(u.encode()) == u

    def test_payment(self, keys):
        u = self._utxo(keys)
        out = self._utxo(keys, tag=2)
        tx = sign_payment([(u, keys["alice"])], [out])
        decoded = wire.decode_latus_transaction(tx.encode())
        assert decoded == tx
        assert decoded.txid == tx.txid

    def test_backward_transfer_tx(self, keys):
        u = self._utxo(keys)
        tx = sign_backward_transfer(
            [(u, keys["alice"])],
            [BackwardTransfer(receiver_addr=keys["alice"].address, amount=50)],
        )
        decoded = wire.decode_latus_transaction(tx.encode())
        assert decoded == tx

    def test_forward_transfers_tx(self, keys):
        ft = ForwardTransfer(
            ledger_id=LEDGER,
            receiver_metadata=pack_receiver_metadata(
                keys["alice"].address, keys["alice"].address
            ),
            amount=10,
        )
        tx = build_forward_transfers_tx(b"\x06" * 32, (ft,), MerkleStateTree(8))
        decoded = wire.decode_latus_transaction(tx.encode())
        assert decoded == tx


@pytest.fixture(scope="module")
def sc_history():
    """A small harness chain: a declared sidechain, a forward transfer, a
    payment, two certified epochs."""
    from repro.scenarios import ZendooHarness
    from repro.crypto.keys import KeyPair

    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("wire-sc-blocks", epoch_len=4, submit_len=2)
    alice = KeyPair.from_seed("alice")
    harness.forward_transfer(sc, alice, 9_000)
    harness.run_epochs(sc, 1)
    harness.wallet(sc, alice).pay(KeyPair.from_seed("bob").address, 100)
    harness.run_epochs(sc, 1)
    return harness, sc


class TestMalformedVerifyingKey:
    """A key whose circuit id is not UTF-8 is malformed wire data."""

    def test_non_utf8_key_id_is_a_decode_error(self, fast_mc_params, keys):
        from repro.mainchain.node import MainchainNode
        from repro.mainchain.transaction import SidechainDeclarationTx
        from repro.scenarios.harness import latus_sidechain_config

        config = latus_sidechain_config("wire-bad-vk", 10, 5, 2)
        vk = replace(config.wcert_vk, circuit_id="x")
        tx = SidechainDeclarationTx(config=replace(config, wcert_vk=vk))
        node = MainchainNode(fast_mc_params)
        node.submit_transaction(tx)
        node.mine_block(keys["miner"].address)
        good, bad = vk.to_bytes(), vk.to_bytes().replace(b"\x01\x00x", b"\x01\x00\xff", 1)
        with pytest.raises(SnarkError):
            VerifyingKey.from_bytes(bad)
        for data, decode in (
            (tx.encode(), wire.decode_mc_transaction),
            (node.chain.tip.encode(), wire.decode_block),
        ):
            assert data.count(good) == 1
            decode(data)
            with pytest.raises(DecodeError):
                decode(data.replace(good, bad))


def _cut_to(data: bytes, field: bytes, size: int) -> bytes:
    """``data`` with its one length-prefixed copy of ``field`` cut to ``size`` bytes."""
    good = Encoder().var_bytes(field).done()
    assert data.count(good) == 1
    return data.replace(good, Encoder().var_bytes(field[:size]).done())


class TestMalformedFieldsAreDecodeErrors:
    """A wrong-length key or signature, or an impossible epoch schedule,
    is malformed wire data, not a signature or CCTP rule failure."""

    def test_191_byte_public_key_is_a_decode_error(self, keys, sc_history):
        from repro.crypto.signatures import PublicKey, Signature
        from repro.mainchain.transaction import TransactionBuilder
        from repro.mainchain.utxo import Outpoint

        with pytest.raises(SignatureError):
            PublicKey.from_bytes(bytes(191))
        with pytest.raises(SignatureError):
            Signature.from_bytes(bytes(383))
        alice = keys["alice"]
        mc_input = (
            TransactionBuilder()
            .spend(Outpoint(txid=b"\x05" * 32, index=1), alice, 100)
            .pay(keys["bob"].address, 100)
            .build()
            .inputs[0]
        )
        coin = Utxo(address_to_field(alice.address), 50, derive_nonce(b"wire", b"\x01"))
        signed = sign_payment([(coin, alice)], [replace(coin, amount=50)]).inputs[0]
        _, sc = sc_history
        block = sc.node.blocks[-1]
        cases = [
            (mc_input.encode(), mc_input.pubkey, lambda d: wire.read_tx_input(Decoder(d))),
            (signed.encode(), signed.pubkey, lambda d: wire.read_signed_input(Decoder(d))),
            (wire.encode_sidechain_block(block), block.forger_pubkey, wire.decode_sidechain_block),
        ]
        for data, pubkey, decode in cases:
            decode(data)
            with pytest.raises(DecodeError, match="public key must be 192 bytes, got 191"):
                decode(_cut_to(data, pubkey.to_bytes(), 191))
        with pytest.raises(DecodeError, match="signature must be 384 bytes, got 383"):
            wire.read_tx_input(Decoder(_cut_to(mc_input.encode(), mc_input.signature.to_bytes(), 383)))

    def test_zero_epoch_len_declaration_is_a_decode_error(self):
        from repro.mainchain.transaction import SidechainDeclarationTx
        from repro.scenarios.harness import latus_sidechain_config

        config = latus_sidechain_config("wire-bad-schedule", 10, 5, 2)
        good = config.encode()
        # ledger id (32 bytes), start block (u64), then the u64 epoch_len
        assert good[40:48] == (5).to_bytes(8, "little")
        bad = good[:40] + bytes(8) + good[48:]
        with pytest.raises(DecodeError, match="epoch_len must be >= 1"):
            wire.decode_sidechain_config(bad)
        tx = SidechainDeclarationTx(config=config).encode()
        assert wire.decode_mc_transaction(tx).config == config
        with pytest.raises(DecodeError, match="epoch_len must be >= 1"):
            wire.decode_mc_transaction(tx.replace(good, bad))


def _mutate(data: bytes, draw) -> bytes:
    """One bit flip, truncation, ``0xff`` run or insertion at a drawn spot."""
    kind = draw(st.sampled_from(["flip", "truncate", "ff_run", "insert"]))
    at = draw(st.integers(min_value=0, max_value=len(data) - 1))
    if kind == "flip":
        bit = draw(st.integers(min_value=0, max_value=7))
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    if kind == "ff_run":
        run = draw(st.integers(min_value=1, max_value=8))
        return data[:at] + b"\xff" * run + data[at + run :]
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


class TestFuzzResilience:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_real_encodings_raise_only_library_errors(self, sc_history, data):
        """Mutants of a real chain's MC blocks, MC transactions and Latus
        blocks decode or raise a :class:`DecodeError`, never anything else."""
        harness, sc = sc_history
        blocks = harness.mc.chain.active_chain()[1:]
        corpus = (
            [(block.encode(), wire.decode_block) for block in blocks]
            + [
                (tx.encode(), wire.decode_mc_transaction)
                for block in blocks
                for tx in block.transactions
            ]
            + [
                (wire.encode_sidechain_block(block), wire.decode_sidechain_block)
                for block in sc.node.blocks
            ]
        )
        encoded, decode = data.draw(st.sampled_from(corpus))
        try:
            decode(_mutate(encoded, data.draw))
        except DecodeError:
            pass

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes_never_crash_uncontrolled(self, data):
        """Arbitrary bytes must yield either a decoded object or a library
        error — never an uncaught IndexError/ValueError."""
        for decode in (
            wire.decode_forward_transfer,
            wire.decode_withdrawal_certificate,
            wire.decode_mc_transaction,
            wire.decode_latus_transaction,
            wire.decode_block_header,
        ):
            try:
                decode(data)
            except ZendooError:
                pass

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_truncated_real_objects_rejected(self, cut):
        cert = WithdrawalCertificate(
            ledger_id=LEDGER,
            epoch_id=1,
            quality=2,
            bt_list=(BackwardTransfer(receiver_addr=b"\x01" * 32, amount=3),),
            proofdata=(7,),
            proof=proof(),
        )
        data = cert.encode()
        if cut >= len(data):
            return
        with pytest.raises(ZendooError):
            wire.decode_withdrawal_certificate(data[:cut])


class TestSidechainBlockWire:
    def test_every_block_round_trips(self, sc_history):
        harness, sc = sc_history
        for block in sc.node.blocks:
            data = wire.encode_sidechain_block(block)
            decoded = wire.decode_sidechain_block(data)
            assert decoded.hash == block.hash
            assert decoded.state_digest == block.state_digest
            assert decoded.verify_signature()
            assert len(decoded.mc_refs) == len(block.mc_refs)

    def test_decoded_history_bootstraps_fresh_node(self, sc_history):
        """The full P2P story: serialize the chain, ship it, deserialize,
        and let a fresh node validate every byte of it."""
        from repro.latus.node import LatusNode

        harness, sc = sc_history
        shipped = [
            wire.decode_sidechain_block(wire.encode_sidechain_block(b))
            for b in sc.node.blocks
        ]
        fresh = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            auto_submit_certificates=False,
        )
        fresh.bootstrap_from(shipped)
        assert fresh.state.digest() == sc.node.state.digest()
        assert fresh.tip_hash == sc.node.tip_hash

    def test_mc_ref_round_trip_with_presence(self, sc_history):
        harness, sc = sc_history
        refs_with_data = [
            r for b in sc.node.blocks for r in b.mc_refs if r.has_data
        ]
        assert refs_with_data
        for ref in refs_with_data:
            decoded = wire.decode_mc_ref(wire.encode_mc_ref(ref))
            assert decoded.mc_block_hash == ref.mc_block_hash
            from repro.latus.mc_ref import verify_mc_ref

            verify_mc_ref(decoded, sc.ledger_id)

    def test_mc_ref_round_trip_with_absence(self, sc_history):
        harness, sc = sc_history
        refs_no_data = [
            r
            for b in sc.node.blocks
            for r in b.mc_refs
            if not r.has_data
        ]
        assert refs_no_data
        ref = refs_no_data[0]
        decoded = wire.decode_mc_ref(wire.encode_mc_ref(ref))
        assert decoded.proof_of_no_data is not None
        from repro.latus.mc_ref import verify_mc_ref

        verify_mc_ref(decoded, sc.ledger_id)

    def test_tampered_block_bytes_detected(self, sc_history):
        harness, sc = sc_history
        data = bytearray(wire.encode_sidechain_block(sc.node.blocks[0]))
        data[40] ^= 1  # somewhere in the header region
        try:
            decoded = wire.decode_sidechain_block(bytes(data))
        except ZendooError:
            return  # structurally invalid: also fine
        # structurally valid but semantically broken: signature or digest
        # must no longer verify against the original block id
        assert (
            decoded.hash != sc.node.blocks[0].hash
            or not decoded.verify_signature()
        )
