"""Unit tests for the CCTP state machine (repro.core.cctp) — §4.1/§4.2."""

import pytest

from repro.core.bootstrap import SidechainConfig
from repro.core.cctp import CctpState, SidechainStatus
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto.hashing import hash_int
from repro.errors import (
    CctpError,
    CertificateRejected,
    NullifierReused,
    SidechainActive,
    SidechainAlreadyExists,
    SidechainCeased,
    UnknownSidechain,
    VerificationFailure,
)
from repro.snark import proving
from repro.snark.circuit import Circuit


class AlwaysValid(Circuit):
    """A permissive sidechain circuit: only binds the public input."""

    circuit_id = "test/cctp-always-valid"

    def synthesize(self, b, public, witness):
        b.alloc_publics(public)


PK, VK = proving.setup(AlwaysValid())
LEDGER = derive_ledger_id("cctp-sc")


def fake_block_hash(height: int) -> bytes:
    return hash_int(height, b"test-chain")


def make_config(start_block=5, epoch_len=4, submit_len=2, **kw):
    defaults = dict(
        ledger_id=LEDGER,
        start_block=start_block,
        epoch_len=epoch_len,
        submit_len=submit_len,
        wcert_vk=VK,
        btr_vk=VK,
        csw_vk=VK,
    )
    defaults.update(kw)
    return SidechainConfig(**defaults)


def make_cert(epoch=0, quality=1, bts=(), config=None):
    config = config or make_config()
    cert = WithdrawalCertificate(
        ledger_id=config.ledger_id,
        epoch_id=epoch,
        quality=quality,
        bt_list=tuple(bts),
        proofdata=(),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    schedule = config.schedule
    h_prev = (
        fake_block_hash(schedule.last_height(epoch - 1)) if epoch > 0 else b"\x00" * 32
    )
    h_last = fake_block_hash(schedule.last_height(epoch))
    proof = proving.prove(PK, cert.public_input(h_prev, h_last), None)
    return WithdrawalCertificate(
        ledger_id=cert.ledger_id,
        epoch_id=cert.epoch_id,
        quality=cert.quality,
        bt_list=cert.bt_list,
        proofdata=cert.proofdata,
        proof=proof,
    )


@pytest.fixture
def state() -> CctpState:
    cctp = CctpState()
    cctp.register_sidechain(make_config(), height=2)
    return cctp


def cease(cctp):
    """Cease the default sidechain at its epoch-0 deadline (no certificate)."""
    assert cctp.advance_to_height(make_config().schedule.ceasing_height(0)) == [LEDGER]


def submit_cert(cctp, cert, height):
    superseded = cctp.process_certificate(cert, height, fake_block_hash)
    cctp.seal_block(fake_block_hash(height))
    return superseded


class TestRegistration:
    def test_register_and_query(self, state):
        assert state.status(LEDGER) is SidechainStatus.ACTIVE
        assert state.balance(LEDGER) == 0

    def test_duplicate_id_rejected(self, state):
        with pytest.raises(SidechainAlreadyExists):
            state.register_sidechain(make_config(), height=3)

    def test_start_block_must_be_future(self):
        cctp = CctpState()
        with pytest.raises(CctpError):
            cctp.register_sidechain(make_config(start_block=5), height=5)

    def test_unknown_ledger_raises(self, state):
        with pytest.raises(UnknownSidechain):
            state.entry(derive_ledger_id("nope"))

    def test_is_active_respects_start_block(self, state):
        assert not state.is_active(LEDGER, 4)
        assert state.is_active(LEDGER, 5)


class TestForwardTransfers:
    def test_ft_credits_balance(self, state):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=100)
        state.process_forward_transfer(ft, height=6)
        assert state.balance(LEDGER) == 100

    def test_ft_to_ceased_rejected(self, state):
        cease(state)
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=100)
        with pytest.raises(SidechainCeased):
            state.process_forward_transfer(ft, height=6)

    def test_non_positive_ft_rejected(self, state):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=0)
        with pytest.raises(CctpError):
            state.process_forward_transfer(ft, height=6)


class TestCertificates:
    """The WCert verification rules of §4.1.2 (epoch 0 window = heights 9,10)."""

    def test_accepts_valid_certificate(self, state):
        assert submit_cert(state, make_cert(epoch=0), height=9) is None
        assert state.adopted_certificate(LEDGER, 0) is not None

    def test_rejects_outside_window(self, state):
        with pytest.raises(CertificateRejected):
            submit_cert(state, make_cert(epoch=0), height=8)  # too early
        with pytest.raises(CertificateRejected):
            submit_cert(state, make_cert(epoch=0), height=11)  # too late

    def test_quality_must_strictly_increase(self, state):
        submit_cert(state, make_cert(epoch=0, quality=5), height=9)
        with pytest.raises(CertificateRejected):
            submit_cert(state, make_cert(epoch=0, quality=5), height=10)
        with pytest.raises(CertificateRejected):
            submit_cert(state, make_cert(epoch=0, quality=4), height=10)

    def test_higher_quality_supersedes(self, state):
        first = make_cert(epoch=0, quality=5)
        submit_cert(state, first, height=9)
        superseded = submit_cert(state, make_cert(epoch=0, quality=6), height=10)
        assert superseded is not None
        assert superseded.id == first.id
        assert state.adopted_certificate(LEDGER, 0).quality == 6

    def test_invalid_proof_rejected(self, state):
        cert = make_cert(epoch=0)
        bad = WithdrawalCertificate(
            ledger_id=cert.ledger_id,
            epoch_id=cert.epoch_id,
            quality=cert.quality,
            bt_list=cert.bt_list,
            proofdata=cert.proofdata,
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        with pytest.raises(CertificateRejected):
            submit_cert(state, bad, height=9)

    def test_certificate_for_ceased_sidechain_rejected(self, state):
        cease(state)
        with pytest.raises(CertificateRejected):
            submit_cert(state, make_cert(epoch=0), height=9)

    def test_safeguard_enforced_on_bt_list(self, state):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=50)
        state.process_forward_transfer(ft, height=6)
        bts = (BackwardTransfer(receiver_addr=b"\x01" * 32, amount=60),)
        with pytest.raises(Exception):
            submit_cert(state, make_cert(epoch=0, bts=bts), height=9)
        # balance untouched after the failed attempt
        assert state.balance(LEDGER) == 50

    def test_supersession_refunds_before_debiting(self, state):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=50)
        state.process_forward_transfer(ft, height=6)
        bts40 = (BackwardTransfer(receiver_addr=b"\x01" * 32, amount=40),)
        bts45 = (BackwardTransfer(receiver_addr=b"\x01" * 32, amount=45),)
        submit_cert(state, make_cert(epoch=0, quality=1, bts=bts40), height=9)
        assert state.balance(LEDGER) == 10
        submit_cert(state, make_cert(epoch=0, quality=2, bts=bts45), height=10)
        assert state.balance(LEDGER) == 5

    def test_failed_supersession_restores_previous_debit(self, state):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=50)
        state.process_forward_transfer(ft, height=6)
        bts40 = (BackwardTransfer(receiver_addr=b"\x01" * 32, amount=40),)
        bts60 = (BackwardTransfer(receiver_addr=b"\x01" * 32, amount=60),)
        submit_cert(state, make_cert(epoch=0, quality=1, bts=bts40), height=9)
        with pytest.raises(Exception):
            submit_cert(state, make_cert(epoch=0, quality=2, bts=bts60), height=10)
        assert state.balance(LEDGER) == 10
        assert state.adopted_certificate(LEDGER, 0).quality == 1

    def test_record_names_its_block_once_sealed(self, state):
        state.process_certificate(make_cert(epoch=0), 9, fake_block_hash)
        record = state.entry(LEDGER).certificates[0]
        assert record.included_in_block is None
        assert state.entry(LEDGER).last_cert_block_hash == b"\x00" * 32
        state.seal_block(fake_block_hash(9))
        entry = state.entry(LEDGER)
        assert entry.certificates[0].included_in_block == fake_block_hash(9)
        assert entry.last_cert_block_hash == fake_block_hash(9)

    def test_proofdata_schema_enforced(self):
        cctp = CctpState()
        from repro.core.bootstrap import ProofdataSchema

        config = make_config(wcert_proofdata=ProofdataSchema(fields=("x",)))
        cctp.register_sidechain(config, height=2)
        with pytest.raises(CertificateRejected):
            submit_cert(cctp, make_cert(epoch=0, config=config), height=9)


class TestCeasing:
    def test_sidechain_ceases_without_certificate(self, state):
        # epoch 0 window is heights 9-10; deadline is 11
        assert state.advance_to_height(10) == []
        assert state.advance_to_height(11) == [LEDGER]
        assert state.status(LEDGER) is SidechainStatus.CEASED
        assert state.entry(LEDGER).ceased_at_height == 11

    def test_certificate_postpones_ceasing(self, state):
        submit_cert(state, make_cert(epoch=0), height=9)
        assert state.advance_to_height(11) == []
        # but missing epoch 1 (window 13-14) ceases at 15
        assert state.advance_to_height(15) == [LEDGER]

    def test_ceasing_is_idempotent(self, state):
        state.advance_to_height(11)
        assert state.advance_to_height(12) == []

    def test_pre_start_sidechain_does_not_cease(self):
        cctp = CctpState()
        cctp.register_sidechain(make_config(start_block=100), height=2)
        assert cctp.advance_to_height(50) == []


class TestBtr:
    def _btr(self, nullifier=b"\x07" * 32, amount=5):
        btr = BackwardTransferRequest(
            ledger_id=LEDGER,
            receiver=b"\x01" * 32,
            amount=amount,
            nullifier=nullifier,
            proofdata=(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        proof = proving.prove(PK, btr.public_input(b"\x00" * 32), None)
        return BackwardTransferRequest(
            ledger_id=btr.ledger_id,
            receiver=btr.receiver,
            amount=btr.amount,
            nullifier=btr.nullifier,
            proofdata=btr.proofdata,
            proof=proof,
        )

    def test_valid_btr_accepted(self, state):
        state.process_btr(self._btr(), height=6)

    def test_nullifier_reuse_rejected(self, state):
        state.process_btr(self._btr(), height=6)
        with pytest.raises(NullifierReused):
            state.process_btr(self._btr(), height=7)

    def test_btr_moves_no_coins(self, state):
        state.process_btr(self._btr(), height=6)
        assert state.balance(LEDGER) == 0

    def test_btr_for_ceased_rejected(self, state):
        cease(state)
        with pytest.raises(SidechainCeased):
            state.process_btr(self._btr(), height=6)

    def test_btr_requires_registered_key(self):
        cctp = CctpState()
        cctp.register_sidechain(make_config(btr_vk=None), height=2)
        with pytest.raises(CctpError):
            cctp.process_btr(self._btr(), height=6)

    def test_btr_after_certificate_in_the_same_block_refused(self, state):
        """Its proof would have to commit to the hash of the block holding
        the certificate: refused before verification, nullifier untouched."""
        state.process_certificate(make_cert(epoch=0), 9, fake_block_hash)
        btr = self._btr()
        with pytest.raises(VerificationFailure, match="certified earlier in this block"):
            state.process_btr(btr, height=9)
        assert LEDGER + btr.nullifier not in state.nullifiers

    def test_bad_proof_frees_nullifier(self, state):
        btr = self._btr()
        bad = BackwardTransferRequest(
            ledger_id=btr.ledger_id,
            receiver=btr.receiver,
            amount=btr.amount,
            nullifier=btr.nullifier,
            proofdata=btr.proofdata,
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        with pytest.raises(Exception):
            state.process_btr(bad, height=6)
        # the nullifier was not burned by the failed attempt
        state.process_btr(btr, height=7)


class TestCsw:
    def _csw(self, nullifier=b"\x08" * 32, amount=30):
        csw = CeasedSidechainWithdrawal(
            ledger_id=LEDGER,
            receiver=b"\x02" * 32,
            amount=amount,
            nullifier=nullifier,
            proofdata=(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        proof = proving.prove(PK, csw.public_input(b"\x00" * 32), None)
        return CeasedSidechainWithdrawal(
            ledger_id=csw.ledger_id,
            receiver=csw.receiver,
            amount=csw.amount,
            nullifier=csw.nullifier,
            proofdata=csw.proofdata,
            proof=proof,
        )

    def _fund_and_cease(self, state, amount=100):
        ft = ForwardTransfer(ledger_id=LEDGER, receiver_metadata=b"", amount=amount)
        state.process_forward_transfer(ft, height=6)
        cease(state)

    def test_csw_on_active_sidechain_rejected(self, state):
        with pytest.raises(SidechainActive):
            state.process_csw(self._csw(), height=12)

    def test_csw_pays_and_debits(self, state):
        self._fund_and_cease(state)
        receiver, amount = state.process_csw(self._csw(), height=12)
        assert (receiver, amount) == (b"\x02" * 32, 30)
        assert state.balance(LEDGER) == 70

    def test_csw_nullifier_reuse_rejected(self, state):
        self._fund_and_cease(state)
        state.process_csw(self._csw(), height=12)
        with pytest.raises(NullifierReused):
            state.process_csw(self._csw(), height=13)

    def test_csw_over_balance_rejected(self, state):
        self._fund_and_cease(state, amount=10)
        with pytest.raises(Exception):
            state.process_csw(self._csw(amount=30), height=12)
        # failed withdrawal must not burn the nullifier
        csw_small = self._csw(nullifier=b"\x08" * 32, amount=10)
        state.process_csw(csw_small, height=13)

    def test_btr_and_csw_nullifier_sets_are_shared(self, state):
        # a nullifier consumed by a BTR cannot be reused by a CSW
        btr_nullifier = b"\x0c" * 32
        btr = TestBtr()._btr(nullifier=btr_nullifier)
        state.process_btr(btr, height=6)
        self._fund_and_cease(state)
        with pytest.raises(NullifierReused):
            state.process_csw(self._csw(nullifier=btr_nullifier, amount=10), height=12)


class TestCopy:
    def test_copy_isolates_certificates_and_nullifiers(self, state):
        clone = state.copy()
        submit_cert(clone, make_cert(epoch=0), height=9)
        assert state.adopted_certificate(LEDGER, 0) is None
        assert clone.adopted_certificate(LEDGER, 0) is not None
