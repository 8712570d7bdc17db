"""Withdrawal-certificate verification: ``verify_many`` and the one block path.

Covers :func:`repro.snark.proving.verify_many`, which no block path calls
any more (the pipeline tracer still wraps it by name), and the chain
property that a certificate's proof is checked once, inline, at rule 4 of
:meth:`CctpState.process_certificate`: a chain replayed on a fresh
:class:`Blockchain` is byte-identical to the original, a forged proof is
refused with the rule-4 message, and a certificate the free rules refuse
costs no verify.
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
    """What ``verify_many`` promises its callers: counted verdicts, in order."""

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


def _certified_chain():
    """A harness run whose chain contains real certificate traffic."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("batch-verify", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 80_000)
    harness.run_epochs(sc, 2)
    return harness


def _counting_verify(monkeypatch) -> list[int]:
    """Patch ``proving.verify`` to count its calls; returns the one-item tally."""
    calls, verify = [0], proving.verify

    def counted(*args):
        calls[0] += 1
        return verify(*args)

    monkeypatch.setattr(proving, "verify", counted)
    return calls


class TestChainParity:
    def test_pooled_replay_is_byte_identical(self):
        """Every certificate of the replayed chain is adopted again, each
        through ``process_certificate``; no block asks for a batch."""
        harness = _certified_chain()
        blocks = harness.mc.chain.active_chain()
        certificates = sum(
            isinstance(tx, CertificateTx)
            for block in blocks
            for tx in block.transactions
        )
        assert certificates
        registry = observability.registry()
        wcerts = registry.counter("repro_cctp_wcert_total", labelnames=("result",))
        batched = registry.counter("repro_snark_batch_verify_total", labelnames=("result",))
        before = wcerts.value(result="accepted"), batched.value(result="valid")
        replay = Blockchain(harness.mc.params)
        for block in blocks[1:]:  # genesis is identical by construction
            replay.add_block(block)
        assert wcerts.value(result="accepted") == before[0] + certificates
        assert batched.value(result="valid") == before[1]
        assert replay.tip.hash == harness.mc.chain.tip.hash
        ledger_id = next(iter(harness.sidechains))
        assert replay.state.cctp.safeguard.balance(
            ledger_id
        ) == harness.mc.state.cctp.safeguard.balance(ledger_id)

    def test_invalid_proof_rejected_at_rule_four(self, monkeypatch):
        """A forged proof for a live, in-window epoch is verified once and
        refused with the rule-4 message; the honest proof is adopted."""
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
        calls = _counting_verify(monkeypatch)
        with pytest.raises(CertificateRejected, match="SNARK proof verification failed"):
            fresh_state().process_certificate(forged, height, fake_block_hash)
        assert calls == [1]
        assert fresh_state().process_certificate(honest, height, fake_block_hash) is None
        assert calls == [2]

    def test_ceased_sidechain_refused_without_verify(self, monkeypatch):
        """Rule 1 refuses a certificate for a ceased sidechain before the
        proof is looked at."""
        from tests.test_cctp import fake_block_hash, make_cert, make_config

        config = make_config()
        state = CctpState()
        state.register_sidechain(config, height=2)
        deadline = config.schedule.ceasing_height(0)
        assert state.advance_to_height(deadline) == [config.ledger_id]
        cert = make_cert(epoch=0, quality=1, config=config)
        calls = _counting_verify(monkeypatch)
        with pytest.raises(CertificateRejected, match="ceased sidechain"):
            state.process_certificate(cert, deadline, fake_block_hash)
        assert calls == [0]
