"""Integration tests for the Latus node (repro.latus.node)."""

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError
from repro.scenarios import ZendooHarness

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


@pytest.fixture
def scenario():
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("node-test", epoch_len=4, submit_len=2)
    return harness, sc


class TestSyncAndForging:
    def test_blocks_track_mc(self, scenario):
        harness, sc = scenario
        harness.mine(6)
        node = sc.node
        assert node.height >= 0
        assert node.last_referenced_mc_height == harness.mc.height
        assert node.synced_mc_height == harness.mc.height

    def test_references_are_contiguous(self, scenario):
        harness, sc = scenario
        harness.mine(8)
        expected = sc.config.start_block
        for block in sc.node.blocks:
            for ref in block.mc_refs:
                assert ref.mc_height == expected
                expected += 1

    def test_forger_signature_valid(self, scenario):
        harness, sc = scenario
        harness.mine(4)
        assert all(b.verify_signature() for b in sc.node.blocks)

    def test_ft_synced_into_state(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 5000)
        harness.mine(2)
        wallet = harness.wallet(sc, ALICE)
        assert wallet.balance() == 5000

    def test_payment_included(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 5000)
        harness.mine(2)
        harness.wallet(sc, ALICE).pay(BOB.address, 1200)
        harness.mine(1)
        assert harness.wallet(sc, BOB).balance() == 1200
        assert not sc.node.pending_transactions()

    def test_invalid_pending_tx_skipped_not_fatal(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 5000)
        harness.mine(2)
        wallet = harness.wallet(sc, ALICE)
        tx = wallet.pay(BOB.address, 1200)
        # submit the same tx again via a double-spend replay
        sc.node.submitted_txs.append(tx)
        harness.mine(2)
        assert harness.wallet(sc, BOB).balance() == 1200

    def test_direct_ftt_submission_rejected(self, scenario):
        harness, sc = scenario
        from repro.latus.transactions import ForwardTransfersTx

        fake = ForwardTransfersTx(
            mc_block_id=b"\x00" * 32, transfers=(), outputs=(), rejected=()
        )
        with pytest.raises(ConsensusError):
            sc.node.submit_transaction(fake)


class TestWithdrawalEpochs:
    def test_certificates_generated_each_epoch(self, scenario):
        harness, sc = scenario
        harness.run_epochs(sc, 3)
        assert [c.epoch_id for c in sc.node.certificates] == [0, 1, 2]

    def test_certificates_adopted_by_mc(self, scenario):
        harness, sc = scenario
        harness.run_epochs(sc, 2)
        entry = harness.mc.state.cctp.entry(sc.ledger_id)
        assert set(entry.certificates) >= {0, 1}

    def test_epoch_ledger_resets(self, scenario):
        harness, sc = scenario
        harness.run_epochs(sc, 1)
        assert sc.node.epoch_id == 1
        assert sc.node.state.backward_transfers == []

    def test_anchor_recorded_per_epoch(self, scenario):
        harness, sc = scenario
        harness.run_epochs(sc, 2)
        assert set(sc.node.anchors) >= {0, 1}
        anchor = sc.node.anchors[0]
        assert anchor.mst_root == anchor.state_snapshot.mst_root

    def test_quality_increases_across_epochs(self, scenario):
        harness, sc = scenario
        harness.run_epochs(sc, 3)
        qualities = [c.quality for c in sc.node.certificates]
        assert qualities == sorted(qualities)
        assert len(set(qualities)) == len(qualities)


class TestStakeHandover:
    def test_stake_based_leadership_after_funding(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 10_000)
        # run well past a consensus-epoch boundary (8 slots per epoch)
        harness.mine(12)
        distribution = sc.node.stake_distribution()
        from repro.latus.utxo import address_to_field

        assert distribution.stake_of(address_to_field(ALICE.address)) == 10_000
        # chain did not stall: every MC block is referenced
        assert sc.node.last_referenced_mc_height == harness.mc.height

    def test_unregistered_staker_stalls_chain(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("stall-test", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 10_000, register_forger=False)
        harness.mine(14)
        # once alice's stake dominates and nobody holds her key, slots skip
        # and the MC blocks they would have referenced stay queued
        assert sc.node.mc_queue
        assert sc.node.last_referenced_mc_height < harness.mc.height


class TestMcReorgRecovery:
    def test_sc_reverts_with_mc_fork(self, scenario):
        """§5.1's fork-resolution property: SC blocks referencing orphaned
        MC blocks are reverted when the MC reorgs."""
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 9000)
        harness.mine(3)
        assert harness.wallet(sc, ALICE).balance() == 9000

        # Build a heavier competing MC fork that lacks the forward transfer.
        mc = harness.mc
        fork_point = mc.chain.block_at_height(mc.height - 3)
        from tests.test_mainchain_chain import make_block

        parent = fork_point
        for i in range(5):
            block = make_block(parent, params=mc.params, ts=1000 + i)
            mc.chain.add_block(block)
            parent = block
        assert mc.chain.tip.hash == parent.hash  # the fork won

        sc.node.sync()
        # the FT is gone from the new active chain: balance reverted
        assert harness.wallet(sc, ALICE).balance() == 0
        assert sc.node.synced_mc_height == mc.height

    def test_resubmitted_transactions_survive_reorg(self, scenario):
        harness, sc = scenario
        harness.forward_transfer(sc, ALICE, 9000)
        harness.mine(2)
        harness.wallet(sc, ALICE).pay(BOB.address, 100)
        harness.mine(1)
        assert harness.wallet(sc, BOB).balance() == 100

        mc = harness.mc
        fork_point = mc.chain.block_at_height(mc.height - 1)
        from tests.test_mainchain_chain import make_block

        parent = fork_point
        for i in range(3):
            block = make_block(parent, params=mc.params, ts=2000 + i)
            mc.chain.add_block(block)
            parent = block
        sc.node.sync()
        # the FT was mined before the fork point, so alice is still funded
        # and the payment (kept in submitted_txs) is re-included
        assert harness.wallet(sc, BOB).balance() == 100
