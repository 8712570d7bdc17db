"""Unit tests for the scenario harness (repro.scenarios.harness)."""

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import CctpError
from repro.scenarios import ZendooHarness

ALICE = KeyPair.from_seed("alice")


class TestHarnessBasics:
    def test_mine_advances_and_syncs(self):
        harness = ZendooHarness()
        harness.mine(3)
        assert harness.mc.height == 3
        sc = harness.create_sidechain("harness-1", epoch_len=4, submit_len=2)
        harness.mine(4)
        assert sc.node.synced_mc_height == harness.mc.height

    def test_mine_until(self):
        harness = ZendooHarness()
        harness.mine_until(7)
        assert harness.mc.height == 7
        harness.mine_until(3)  # no-op when already past
        assert harness.mc.height == 7

    @pytest.mark.slow  # multi-epoch scenario; nightly job runs it
    def test_run_epochs_counts_withdrawal_epochs(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("harness-2", epoch_len=4, submit_len=2)
        start_epoch = sc.node.epoch_id
        harness.run_epochs(sc, 2)
        assert sc.node.epoch_id == start_epoch + 2


class TestMinerCoinReservation:
    def test_coins_not_reused_across_pending_txs(self):
        harness = ZendooHarness()
        harness.mine(3)
        a = harness.miner_coin()
        b = harness.miner_coin()
        assert a[0] != b[0]

    def test_reservation_mines_when_exhausted(self):
        harness = ZendooHarness()
        harness.mine(1)
        height_before = harness.mc.height
        outpoints = {harness.miner_coin()[0] for _ in range(4)}
        assert len(outpoints) == 4
        assert harness.mc.height > height_before  # had to mine for coins

    def test_parallel_fts_all_land(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("harness-3", epoch_len=5, submit_len=2)
        users = [KeyPair.from_seed(f"harness3/u{i}") for i in range(3)]
        for user in users:
            harness.forward_transfer(sc, user, 1000)
        harness.mine(2)
        for user in users:
            assert harness.wallet(sc, user).balance() == 1000


class TestWithdrawalWitnessGuards:
    def test_requires_adopted_certificate(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("harness-4", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 500)
        harness.mine(1)
        utxo = harness.wallet(sc, ALICE).utxos()[0]
        with pytest.raises(CctpError):
            harness.make_btr(sc, utxo, ALICE, ALICE.address)

    def test_btr_requires_utxo_in_committed_state(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("harness-5", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 500)
        harness.run_epochs(sc, 1)
        # create a brand-new coin after the certificate; it cannot anchor
        harness.wallet(sc, ALICE).pay(ALICE.address, 200)
        harness.mine(1)
        fresh = [u for u in harness.wallet(sc, ALICE).utxos() if u.amount == 200]
        assert fresh
        from repro.errors import ZendooError

        with pytest.raises(ZendooError):
            harness.make_btr(sc, fresh[0], ALICE, ALICE.address)
