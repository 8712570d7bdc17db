"""Adversarial end-to-end tests: every attack the paper's design defeats.

Each test plays a concrete adversary against the full harness and checks
that the corresponding defence (safeguard §4.1.2.2, quality rule §4.1.2,
SNARK binding, nullifiers, deterministic sync §5.3) holds.
"""

from dataclasses import replace

import pytest

from repro.core.transfers import BackwardTransfer
from repro.crypto.keys import KeyPair
from repro.errors import ZendooError
from repro.mainchain.transaction import CertificateTx, CswTx
from repro.scenarios import ZendooHarness
from repro.snark import proving

ALICE = KeyPair.from_seed("alice")
MALLORY = KeyPair.from_seed("mallory")


@pytest.fixture
def scenario():
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("adversarial", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 100_000)
    harness.run_epochs(sc, 1)
    return harness, sc


def try_connect(harness, tx) -> Exception | None:
    """Connect a tx into the next block on a copy of the tip state, exactly
    as the miner and peers do; returns the rejection, if any."""
    height = harness.mc.height + 1
    state = harness.mc.chain.state.copy()
    state.begin_block(height)
    try:
        state.connect_transaction(tx, height)
    except ZendooError as exc:
        return exc
    return None


class TestCertificateForgery:
    def test_inflated_bt_list_rejected(self, scenario):
        """Mallory grafts an extra payout onto an honest certificate: the
        proof no longer matches MH(BTList)."""
        harness, sc = scenario
        honest = sc.node.certificates[-1]
        forged = replace(
            honest,
            bt_list=honest.bt_list
            + (BackwardTransfer(receiver_addr=MALLORY.address, amount=99_000),),
        )
        rejection = try_connect(harness, CertificateTx(wcert=forged))
        assert rejection is not None

    def test_random_proof_rejected(self, scenario):
        harness, sc = scenario
        honest = sc.node.certificates[-1]
        forged = replace(
            honest, proof=proving.Proof(data=b"\xab" * proving.PROOF_SIZE)
        )
        assert try_connect(harness, CertificateTx(wcert=forged)) is not None

    def test_replayed_certificate_for_wrong_epoch_rejected(self, scenario):
        harness, sc = scenario
        honest = sc.node.certificates[-1]
        replayed = replace(honest, epoch_id=honest.epoch_id + 1)
        assert try_connect(harness, CertificateTx(wcert=replayed)) is not None

    def test_quality_inflation_rejected(self, scenario):
        """quality is bound by the SNARK: claiming a higher quality with the
        honest proof fails verification."""
        harness, sc = scenario
        honest = sc.node.certificates[-1]
        inflated = replace(honest, quality=honest.quality + 100)
        assert try_connect(harness, CertificateTx(wcert=inflated)) is not None

    def test_cross_sidechain_replay_rejected(self, scenario):
        harness, sc = scenario
        other = harness.create_sidechain("adversarial-2", epoch_len=4, submit_len=2)
        honest = sc.node.certificates[-1]
        cross = replace(honest, ledger_id=other.ledger_id)
        assert try_connect(harness, CertificateTx(wcert=cross)) is not None


class TestSafeguard:
    def test_malicious_sidechain_cannot_mint(self, scenario):
        """Even a certificate-forging adversary cannot withdraw more than
        was deposited — the MC balance bound is independent of the SC."""
        harness, sc = scenario
        balance = harness.mc.state.cctp.balance(sc.ledger_id)
        assert balance == 100_000
        # a hypothetical fully-valid certificate paying out more than the
        # balance is stopped by the safeguard before proof checking matters
        honest = sc.node.certificates[-1]
        overdraw = replace(
            honest,
            bt_list=(
                BackwardTransfer(receiver_addr=MALLORY.address, amount=balance + 1),
            ),
        )
        assert try_connect(harness, CertificateTx(wcert=overdraw)) is not None

    def test_csw_cannot_exceed_balance(self, scenario):
        harness, sc = scenario
        utxo = harness.wallet(sc, ALICE).utxos()[0]
        sc.node.auto_submit_certificates = False
        harness.mine(8)  # cease
        csw = harness.make_csw(sc, utxo, ALICE, MALLORY.address)
        # drain the balance with the honest CSW first
        harness.submit_csw(csw)
        harness.mine(1)
        assert harness.mc.state.cctp.balance(sc.ledger_id) == 0
        # replay (nullifier) and over-withdrawal both impossible now
        assert try_connect(harness, CswTx(csw=csw)) is not None


class TestNullifierDoubleSpend:
    def test_csw_replay_across_blocks_rejected(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 50_000)
        harness.run_epochs(sc, 1)
        utxos = harness.wallet(sc, ALICE).utxos()
        sc.node.auto_submit_certificates = False
        harness.mine(8)
        csw = harness.make_csw(sc, utxos[0], ALICE, ALICE.address)
        harness.submit_csw(csw)
        harness.mine(1)
        before = harness.mc.state.utxos.balance_of(ALICE.address)
        assert try_connect(harness, CswTx(csw=csw)) is not None
        harness.mine(1)
        assert harness.mc.state.utxos.balance_of(ALICE.address) == before


class TestForgedSidechainBlocks:
    def test_wrong_leader_rejected(self, scenario):
        harness, sc = scenario
        from repro.latus.block import forge_block

        node = sc.node
        # mallory (no stake, not creator) forges an empty block
        forged = forge_block(
            parent_hash=node.tip_hash,
            height=node.height + 1,
            slot=(harness.mc.height + 1) - sc.config.start_block,
            forger=MALLORY,
            mc_refs=(),
            transactions=(),
            state_digest=node.state.digest(),
        )
        with pytest.raises(ZendooError):
            node.receive_block(forged)

    def test_bad_state_digest_rejected(self, scenario):
        harness, sc = scenario
        from repro.latus.block import forge_block

        node = sc.node
        creator = node.creator
        forged = forge_block(
            parent_hash=node.tip_hash,
            height=node.height + 1,
            slot=node.blocks[-1].slot,
            forger=creator,
            mc_refs=(),
            transactions=(),
            state_digest=12345,  # lie about the resulting state
        )
        with pytest.raises(ZendooError):
            node.receive_block(forged)

    def test_non_contiguous_refs_rejected(self, scenario):
        harness, sc = scenario
        node = sc.node
        from repro.latus.block import forge_block
        from repro.latus.mc_ref import build_mc_ref

        harness.mc.mine_block(harness.miner.address)
        harness.mc.mine_block(harness.miner.address)
        skip_ahead = build_mc_ref(
            harness.mc.chain.tip, sc.ledger_id, node.state.mst
        )  # skips one MC height
        forged = forge_block(
            parent_hash=node.tip_hash,
            height=node.height + 1,
            slot=harness.mc.height - sc.config.start_block,
            forger=node.creator,
            mc_refs=(skip_ahead,),
            transactions=(),
            state_digest=node.state.digest(),
        )
        with pytest.raises(ZendooError):
            node.receive_block(forged)
