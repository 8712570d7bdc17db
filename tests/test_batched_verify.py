"""Batched withdrawal-certificate verification and its chain parity.

Covers :func:`repro.snark.proving.verify_many` (the one batch entry point),
:meth:`MainchainState.certificate_verdicts` feeding it, and the end-to-end
property that a chain replayed on a fresh :class:`Blockchain` — batched
verdicts included — is byte-identical to the original, with invalid proofs
rejected at the same rule position either way.
"""

from dataclasses import replace

import pytest

from repro import observability
from repro.core.cctp import CctpState
from repro.crypto.keys import KeyPair
from repro.errors import CertificateRejected
from repro.mainchain.chain import Blockchain
from repro.mainchain.transaction import CertificateTx
from repro.scenarios import ZendooHarness
from repro.snark import proving
from repro.snark.circuit import Circuit

ALICE = KeyPair.from_seed("alice")


class _Binding(Circuit):
    circuit_id = "test/batched-verify"

    def synthesize(self, b, public, witness):
        b.alloc_publics(public)


PK, VK = proving.setup(_Binding())


def _jobs(n: int, tamper: set[int] = frozenset()):
    jobs = []
    for i in range(n):
        public = (i, i + 1)
        proof = proving.prove(PK, public, None)
        if i in tamper:
            proof = proving.Proof(data=b"\x13" * proving.PROOF_SIZE)
        jobs.append((VK, public, proof))
    return jobs


class TestVerifyMany:
    def test_matches_loop_of_verify(self):
        jobs = _jobs(9, tamper={2, 5})
        expected = [proving.verify(vk, pub, prf) for vk, pub, prf in jobs]
        assert proving.verify_many(jobs) == expected
        assert expected == [i not in {2, 5} for i in range(9)]

    def test_empty(self):
        assert proving.verify_many([]) == []


class TestPoolMapVerify:
    """What a block's certificate check relies on from ``verify_many``."""

    def test_serial_pool_matches_verify_many(self):
        """Verdicts are counted once each on ``repro_snark_batch_verify_total``."""
        series = observability.registry().counter(
            "repro_snark_batch_verify_total", labelnames=("result",)
        )
        before = {r: series.value(result=r) for r in ("valid", "invalid")}
        proving.verify_many(_jobs(7, tamper={0, 6}))
        after = {r: series.value(result=r) for r in ("valid", "invalid")}
        assert after == {"valid": before["valid"] + 5, "invalid": before["invalid"] + 2}

    def test_order_preserved_across_chunks(self):
        jobs = _jobs(24, tamper={1, 4, 9, 23})
        assert proving.verify_many(jobs) == [i not in {1, 4, 9, 23} for i in range(24)]

    def test_empty_jobs(self):
        """A body without certificates asks for no verdicts at all."""
        harness = ZendooHarness()
        harness.mine(2)
        state = harness.mc.state
        assert state.certificate_verdicts([], state.height + 1) == {}


def _certified_chain():
    """A harness run whose chain contains real certificate traffic."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("batch-verify", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 80_000)
    harness.run_epochs(sc, 2)
    return harness


class TestChainParity:
    def test_pooled_replay_is_byte_identical(self):
        harness = _certified_chain()
        blocks = harness.mc.chain.active_chain()
        assert any(
            isinstance(tx, CertificateTx)
            for block in blocks
            for tx in block.transactions
        )
        batched = observability.registry().counter(
            "repro_snark_batch_verify_total", labelnames=("result",)
        )
        before = batched.value(result="valid")
        replay = Blockchain(harness.mc.params)
        for block in blocks[1:]:  # genesis is identical by construction
            replay.add_block(block)
        assert batched.value(result="valid") > before
        assert replay.tip.hash == harness.mc.chain.tip.hash
        ledger_id = next(iter(harness.sidechains))
        assert replay.state.cctp.safeguard.balance(
            ledger_id
        ) == harness.mc.state.cctp.safeguard.balance(ledger_id)

    def test_invalid_proof_rejected_identically_in_both_paths(self):
        """A forged proof fails at the same rule whether the verdict comes
        from the batched pipeline (``proof_valid=False``) or the inline
        serial check (``proof_valid=None``)."""
        from tests.test_cctp import fake_block_hash, make_cert, make_config

        config = make_config()
        height = config.schedule.last_height(0) + 1  # epoch-1 window open

        def fresh_state():
            state = CctpState()
            state.register_sidechain(config, height=2)
            state.advance_to_height(height)
            return state

        honest = make_cert(epoch=0, quality=1, config=config)
        forged = replace(
            honest, proof=proving.Proof(data=b"\xee" * proving.PROOF_SIZE)
        )

        # the batched pipeline produces a job for it (entry alive, in window)
        job = fresh_state().certificate_verification_job(
            forged, height, fake_block_hash
        )
        assert job is not None
        vk, public = job
        assert proving.verify_many([(vk, public, forged.proof)]) == [False]
        assert proving.verify_many([(vk, public, honest.proof)]) == [True]

        def attempt(proof_valid):
            with pytest.raises(CertificateRejected) as err:
                fresh_state().process_certificate(
                    forged, height, fake_block_hash, proof_valid
                )
            return str(err.value)

        assert attempt(None) == attempt(False)
        assert "SNARK proof verification failed" in attempt(False)

    def test_verification_job_is_none_for_ceased_sidechain(self):
        from tests.test_cctp import fake_block_hash, make_cert, make_config

        config = make_config()
        state = CctpState()
        state.register_sidechain(config, height=2)
        deadline = config.schedule.ceasing_height(0)
        assert state.advance_to_height(deadline) == [config.ledger_id]
        cert = make_cert(epoch=0, quality=1, config=config)
        assert (
            state.certificate_verification_job(cert, deadline, fake_block_hash)
            is None
        )
