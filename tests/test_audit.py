"""Tests for the independent sidechain auditor and node bootstrapping."""

from dataclasses import replace

import pytest

from repro.crypto.keys import KeyPair
from repro import errors
from repro.latus import block as latus_block
from repro.latus.audit import SidechainAuditor
from repro.latus.node import LatusNode
from repro.scenarios import ZendooHarness

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


@pytest.fixture(scope="module")
def history():
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("audit", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 50_000)
    harness.run_epochs(sc, 1)
    harness.wallet(sc, ALICE).pay(BOB.address, 12_000)
    harness.run_epochs(sc, 1)
    return harness, sc


def make_auditor(harness, sc) -> SidechainAuditor:
    return SidechainAuditor(
        config=sc.config,
        params=sc.node.params,
        mc_node=harness.mc,
        creator_address=sc.node.creator.address,
    )


class TestCleanHistory:
    def test_honest_history_audits_clean(self, history):
        harness, sc = history
        report = make_auditor(harness, sc).audit(sc.node.blocks)
        assert report.clean, (report.violations, report.certificate_mismatches)
        assert report.blocks_verified == len(sc.node.blocks)
        assert report.epochs_checked >= 2
        assert report.transitions_applied > 0
        assert report.mc_references_verified > 0


class TestViolationDetection:
    def test_broken_parent_link(self, history):
        harness, sc = history
        blocks = list(sc.node.blocks)
        blocks[1], blocks[2] = blocks[2], blocks[1]
        report = make_auditor(harness, sc).audit(blocks)
        assert not report.clean
        assert any("parent link" in v for v in report.violations)

    def test_tampered_state_digest(self, history):

        harness, sc = history
        blocks = list(sc.node.blocks)
        # tampering invalidates the signature first; re-sign to reach the
        # digest check (a forger lying about the resulting state)
        from repro.latus.block import forge_block

        target = blocks[0]
        forged = forge_block(
            parent_hash=target.parent_hash,
            height=target.height,
            slot=target.slot,
            forger=sc.node.creator,
            mc_refs=target.mc_refs,
            transactions=target.transactions,
            state_digest=target.state_digest + 1,
        )
        report = make_auditor(harness, sc).audit([forged] + blocks[1:])
        assert not report.clean

    def test_truncated_history_still_clean_prefix(self, history):
        harness, sc = history
        report = make_auditor(harness, sc).audit(sc.node.blocks[:2])
        assert report.clean
        assert report.blocks_verified == 2

    def test_foreign_forger_detected(self, history):
        from repro.latus.block import forge_block

        harness, sc = history
        mallory = KeyPair.from_seed("mallory")
        target = sc.node.blocks[0]
        forged = forge_block(
            parent_hash=target.parent_hash,
            height=target.height,
            slot=target.slot,
            forger=mallory,
            mc_refs=target.mc_refs,
            transactions=target.transactions,
            state_digest=target.state_digest,
        )
        report = make_auditor(harness, sc).audit([forged])
        assert any("slot leader" in v for v in report.violations)


class TestBootstrap:
    def test_fresh_node_reaches_identical_state(self, history):
        harness, sc = history
        fresh = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            forger_keys=[sc.node.creator],
            auto_submit_certificates=False,
        )
        fresh.bootstrap_from(list(sc.node.blocks))
        assert fresh.height == sc.node.height
        assert fresh.tip_hash == sc.node.tip_hash
        assert fresh.state.digest() == sc.node.state.digest()
        assert fresh.utxo_index.keys() == sc.node.utxo_index.keys()
        # anchors rebuilt identically (certificates are deterministic)
        for epoch, anchor in sc.node.anchors.items():
            assert fresh.anchors[epoch].certificate.id == anchor.certificate.id

    def test_bootstrap_requires_fresh_node(self, history):
        harness, sc = history
        from repro.errors import ConsensusError

        with pytest.raises(ConsensusError):
            sc.node.bootstrap_from(list(sc.node.blocks))

    def test_bootstrap_rejects_tampered_history(self, history):
        harness, sc = history
        from repro.errors import ZendooError

        fresh = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            auto_submit_certificates=False,
        )
        blocks = list(sc.node.blocks)
        blocks[0], blocks[1] = blocks[1], blocks[0]
        with pytest.raises(ZendooError):
            fresh.bootstrap_from(blocks)


def _resign(sc, block, **changes):
    """``block`` with ``changes``, re-signed by its own forger."""
    fields = dict(
        parent_hash=block.parent_hash,
        height=block.height,
        slot=block.slot,
        forger=sc.node.forgers[block.forger_addr],
        mc_refs=block.mc_refs,
        transactions=block.transactions,
        state_digest=block.state_digest,
    )
    fields.update(changes)
    return latus_block.forge_block(**fields)


def _swap(blocks, i):
    blocks = list(blocks)
    blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
    return blocks


def _non_active_reference(harness, sc):
    """A no-data reference carrying the real header with another timestamp:
    its commitment evidence still verifies, but no active MC block has that
    hash."""
    blocks = list(sc.node.blocks)
    index, ref_index = next(
        (i, j)
        for i, block in enumerate(blocks)
        for j, ref in enumerate(block.mc_refs)
        if not ref.has_data
    )
    refs = list(blocks[index].mc_refs)
    header = refs[ref_index].header
    refs[ref_index] = replace(
        refs[ref_index], header=replace(header, timestamp=header.timestamp + 12345)
    )
    blocks[index] = _resign(sc, blocks[index], mc_refs=tuple(refs))
    return blocks[: index + 1]


def _reference_above_tip(harness, sc):
    """A block referencing the MC height after the local tip."""
    blocks = list(sc.node.blocks)
    tip = blocks[-1]
    header = harness.mc.chain.tip.header
    ref = replace(tip.mc_refs[-1], header=replace(header, height=header.height + 1))
    assert not ref.has_data
    slot = tip.slot + 1
    while True:
        schedule = sc.node.leader_schedule(slot // sc.node.params.slots_per_epoch)
        leader = schedule.leader_of(slot % sc.node.params.slots_per_epoch)
        if leader in sc.node.forgers:
            break
        slot += 1
    return blocks + [
        latus_block.forge_block(
            parent_hash=tip.hash,
            height=tip.height + 1,
            slot=slot,
            forger=sc.node.forgers[leader],
            mc_refs=(ref,),
            transactions=(),
            state_digest=tip.state_digest,
        )
    ]


TAMPERED_HISTORIES = {
    "broken_parent_link": lambda harness, sc: _swap(sc.node.blocks, 1),
    "swapped_first_blocks": lambda harness, sc: _swap(sc.node.blocks, 0),
    "tampered_state_digest": lambda harness, sc: [
        _resign(sc, sc.node.blocks[0], state_digest=sc.node.blocks[0].state_digest + 1)
    ]
    + list(sc.node.blocks[1:]),
    "foreign_forger": lambda harness, sc: [
        _resign(sc, sc.node.blocks[0], forger=KeyPair.from_seed("mallory"))
    ],
    "non_active_reference": _non_active_reference,
    "reference_above_tip": _reference_above_tip,
}


class TestAuditorAndNodeAgree:
    """The auditor and a bootstrapping node refuse the same block."""

    @pytest.mark.parametrize("tamper", sorted(TAMPERED_HISTORIES))
    def test_both_refuse_the_same_block(self, history, tamper):
        harness, sc = history
        blocks = TAMPERED_HISTORIES[tamper](harness, sc)
        report = make_auditor(harness, sc).audit(blocks)
        assert report.violations, tamper
        fresh = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            auto_submit_certificates=False,
        )
        with pytest.raises(errors.ConsensusError):
            fresh.bootstrap_from(blocks)
        assert fresh.height + 1 == report.blocks_verified, report.violations
