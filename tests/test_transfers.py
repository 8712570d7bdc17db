"""Unit tests for CCTP datatypes (repro.core.transfers) — §4.1."""

import dataclasses

from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
    bt_list_root,
    derive_ledger_id,
    proofdata_root,
)
from repro.crypto.field import element_from_bytes
from repro.crypto.hashing import hash_bytes
from repro.crypto.mimc import mimc_hash
from repro.mainchain.transaction import CertificateTx
from repro.snark.proving import PROOF_SIZE, Proof


def dummy_proof() -> Proof:
    return Proof(data=bytes(PROOF_SIZE))


LEDGER = derive_ledger_id("test-sc")


class TestLedgerIds:
    def test_derivation_deterministic(self):
        assert derive_ledger_id("a") == derive_ledger_id("a")
        assert derive_ledger_id("a") != derive_ledger_id("b")

    def test_size(self):
        assert len(LEDGER) == 32


class TestForwardTransfer:
    def test_id_stable_and_sensitive(self):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"m" * 64, amount=5)
        same = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"m" * 64, amount=5)
        other = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"m" * 64, amount=6)
        assert ft.id == same.id
        assert ft.id != other.id

    def test_encoding_injective_across_fields(self):
        a = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"ab", amount=1)
        b = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"a", amount=1)
        assert a.encode() != b.encode()


class TestBackwardTransfer:
    def test_encode_and_id(self):
        bt = BackwardTransfer(receiver_addr=b"\x01" * 32, amount=9)
        assert bt.id != BackwardTransfer(receiver_addr=b"\x01" * 32, amount=8).id

    def test_bt_list_root_order_sensitive(self):
        a = BackwardTransfer(receiver_addr=b"\x01" * 32, amount=1)
        b = BackwardTransfer(receiver_addr=b"\x02" * 32, amount=2)
        assert bt_list_root((a, b)) != bt_list_root((b, a))

    def test_bt_list_root_empty_defined(self):
        assert len(bt_list_root(())) == 32


class TestProofdataRoot:
    def test_matches_mimc_chain(self):
        assert proofdata_root((1, 2, 3)) == mimc_hash((1, 2, 3))

    def test_arity_matters(self):
        assert proofdata_root((0,)) != proofdata_root((0, 0))


class TestWithdrawalCertificate:
    def _cert(self, quality=7, bts=()):
        return WithdrawalCertificate(
            ledger_id=LEDGER,
            epoch_id=3,
            quality=quality,
            bt_list=tuple(bts),
            proofdata=(11, 22, 33),
            proof=dummy_proof(),
        )

    def test_withdrawn_amount(self):
        bts = (
            BackwardTransfer(receiver_addr=b"\x01" * 32, amount=5),
            BackwardTransfer(receiver_addr=b"\x02" * 32, amount=7),
        )
        assert self._cert(bts=bts).withdrawn_amount == 12

    def test_sysdata_layout(self):
        cert = self._cert()
        h_prev, h_last = b"\x03" * 32, b"\x04" * 32
        sysdata = cert.sysdata(h_prev, h_last)
        assert sysdata[0] == 7  # quality first
        assert sysdata[1] == element_from_bytes(bt_list_root(cert.bt_list))
        assert sysdata[2] == element_from_bytes(h_prev)
        assert sysdata[3] == element_from_bytes(h_last)

    def test_public_input_appends_proofdata_root(self):
        cert = self._cert()
        public = cert.public_input(b"\x03" * 32, b"\x04" * 32)
        assert len(public) == 5
        assert public[4] == proofdata_root((11, 22, 33))

    def test_id_depends_on_quality(self):
        assert self._cert(quality=7).id != self._cert(quality=8).id

    def test_replace_yields_a_fresh_id(self):
        """The id lives in a slot ``dataclasses.replace`` does not copy: a
        certificate given its proof after its draft's id was read gets its
        own id, the one a certificate built with that proof has."""
        draft = self._cert()
        draft_id = draft.id
        proof = Proof(data=b"\x05" * PROOF_SIZE)
        final = dataclasses.replace(draft, proof=proof)
        assert final.id != draft_id
        assert final.id == WithdrawalCertificate(
            LEDGER, 3, 7, (), (11, 22, 33), proof
        ).id == hash_bytes(final.encode(), b"zendoo/wcert")
        assert final == dataclasses.replace(final) and draft.id == draft_id

    def test_one_encoding_fills_the_txid_and_the_id(self, monkeypatch):
        """A certificate admitted by its txid is not encoded again for its id."""
        cert = self._cert(bts=[BackwardTransfer(b"\x01" * 32, 5)])
        encodings, encode = [], WithdrawalCertificate.encode

        def counted(self):
            encodings.append(self)
            return encode(self)

        monkeypatch.setattr(WithdrawalCertificate, "encode", counted)
        tx = CertificateTx(wcert=cert)
        txid = tx.txid
        assert cert.id == hash_bytes(encode(cert), b"zendoo/wcert")
        assert tx.txid is txid and len(encodings) == 1


class TestBtrAndCsw:
    def _btr(self):
        return BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x09" * 32,
            amount=4,
            nullifier=b"\x0a" * 32,
            proofdata=(1, 2, 3),
            proof=dummy_proof(),
        )

    def test_btr_public_input_layout(self):
        btr = self._btr()
        anchor = b"\x0b" * 32
        public = btr.public_input(anchor)
        assert len(public) == 5
        assert public[0] == element_from_bytes(anchor)
        assert public[1] == element_from_bytes(btr.nullifier)
        assert public[3] == 4

    def test_btr_and_csw_same_shape(self):
        btr = self._btr()
        csw = CeasedSidechainWithdrawal(
            ledger_id=LEDGER,
            receiver=b"\x09" * 32,
            amount=4,
            nullifier=b"\x0a" * 32,
            proofdata=(1, 2, 3),
            proof=dummy_proof(),
        )
        anchor = b"\x0b" * 32
        assert btr.sysdata(anchor) == csw.sysdata(anchor)
        # ids live in distinct domains even with identical content
        assert btr.id != csw.id

    def test_btr_id_depends_on_nullifier(self):
        a = self._btr()
        b = BackwardTransferRequest(
            ledger_id=a.ledger_id,
            receiver=a.receiver,
            amount=a.amount,
            nullifier=b"\xff" * 32,
            proofdata=a.proofdata,
            proof=a.proof,
        )
        assert a.id != b.id
