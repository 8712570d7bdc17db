"""Full-system integration tests through the scenario harness.

These exercise the complete paper pipeline: sidechain bootstrap (§4.2),
forward transfers (§4.1.1), sidechain payments (§5.3.1), all three
withdrawal paths (§5.5.3), ceasing (Def. 4.2) and multi-sidechain
coexistence (Fig. 1).
"""

import pytest

from repro.core.cctp import SidechainStatus
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError
from repro.latus.node import LatusNode
from repro.scenarios import Account, PaymentWorkload, ZendooHarness, make_accounts

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


class TestFullLifecycle:
    def test_round_trip_preserves_value(self):
        """Coins forward-transferred, moved in the SC, and withdrawn arrive
        intact on the mainchain (the Fig. 13/14 end-to-end flow)."""
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("lifecycle", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 1_000_000)
        harness.run_epochs(sc, 1)
        assert harness.wallet(sc, ALICE).balance() == 1_000_000
        assert harness.mc.state.cctp.balance(sc.ledger_id) == 1_000_000

        harness.wallet(sc, ALICE).pay(BOB.address, 400_000)
        harness.mine(1)
        dest = KeyPair.from_seed("mc-payout")
        harness.wallet(sc, BOB).withdraw(dest.address, 400_000)
        harness.run_epochs(sc, 1)
        schedule = sc.config.schedule
        harness.mine_until(schedule.ceasing_height(sc.node.epoch_id - 1) + 1)
        assert harness.mc.state.utxos.balance_of(dest.address) == 400_000
        assert harness.mc.state.cctp.balance(sc.ledger_id) == 600_000

    def test_btr_round_trip(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("btr-trip", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 50_000)
        harness.run_epochs(sc, 1)
        utxo = harness.wallet(sc, ALICE).utxos()[0]
        dest = KeyPair.from_seed("btr-dest")
        btr = harness.make_btr(sc, utxo, ALICE, dest.address)
        harness.submit_btr(btr)
        harness.run_epochs(sc, 2)
        harness.mine(4)
        assert harness.mc.state.utxos.balance_of(dest.address) == 50_000

    def test_csw_after_ceasing(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("csw-trip", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 50_000)
        harness.run_epochs(sc, 1)
        utxo = harness.wallet(sc, ALICE).utxos()[0]
        sc.node.auto_submit_certificates = False
        harness.mine(8)
        assert (
            harness.mc.state.cctp.status(sc.ledger_id) is SidechainStatus.CEASED
        )
        dest = KeyPair.from_seed("csw-dest")
        csw = harness.make_csw(sc, utxo, ALICE, dest.address)
        harness.submit_csw(csw)
        harness.mine(1)
        assert harness.mc.state.utxos.balance_of(dest.address) == 50_000

    def test_sidechain_balance_never_negative(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("nonneg", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 1000)
        for _ in range(12):
            harness.mine(1)
            assert harness.mc.state.cctp.balance(sc.ledger_id) >= 0


class TestMultiSidechain:
    def test_three_independent_sidechains(self):
        """Fig. 1's topology: several sidechains with unaligned epochs."""
        harness = ZendooHarness()
        harness.mine(2)
        sc_a = harness.create_sidechain("multi-a", epoch_len=3, submit_len=1)
        sc_b = harness.create_sidechain("multi-b", epoch_len=5, submit_len=2)
        sc_c = harness.create_sidechain("multi-c", epoch_len=7, submit_len=3)
        users = [KeyPair.from_seed(f"multi-user-{i}") for i in range(3)]
        for sc, user, amount in zip((sc_a, sc_b, sc_c), users, (100, 200, 300)):
            harness.forward_transfer(sc, user, amount)
        harness.mine(15)
        for sc, user, amount in zip((sc_a, sc_b, sc_c), users, (100, 200, 300)):
            assert harness.wallet(sc, user).balance() == amount
            assert harness.mc.state.cctp.balance(sc.ledger_id) == amount
        # every sidechain certified at its own cadence
        for sc in (sc_a, sc_b, sc_c):
            entry = harness.mc.state.cctp.entry(sc.ledger_id)
            assert entry.status is SidechainStatus.ACTIVE
            assert entry.certificates

    def test_one_ceasing_does_not_affect_others(self):
        harness = ZendooHarness()
        harness.mine(2)
        healthy = harness.create_sidechain("healthy", epoch_len=4, submit_len=2)
        dying = harness.create_sidechain("dying", epoch_len=4, submit_len=2)
        harness.mine(3)
        dying.node.auto_submit_certificates = False
        harness.mine(10)
        assert harness.mc.state.cctp.status(dying.ledger_id) is SidechainStatus.CEASED
        assert (
            harness.mc.state.cctp.status(healthy.ledger_id)
            is SidechainStatus.ACTIVE
        )


class TestWorkload:
    def test_payment_workload_runs_and_conserves(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("workload", epoch_len=5, submit_len=2)
        accounts = make_accounts(4)
        workload = PaymentWorkload(harness, sc, accounts)
        workload.fund_all(10_000)
        harness.mine(2)
        submitted = workload.submit_payments(10, max_amount=500)
        assert submitted > 0
        harness.mine(2)
        total = sum(
            harness.wallet(sc, a.keypair).balance() for a in accounts
        )
        assert total == 4 * 10_000  # closed system: payments conserve value

    def test_a_second_wallet_call_reuses_no_output_nonce(self):
        # a fresh wallet per call would derive the first payment's output
        # nonce again: the second payment's output collides with the first's
        # and the payment stays pending forever
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("wallet-nonces", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 9_000)
        harness.mine(2)
        first = harness.wallet(sc, ALICE).pay(BOB.address, 10)
        harness.mine(1)
        assert first.txid in sc.node.included_txids
        second = harness.wallet(sc, ALICE).pay(BOB.address, 10)
        harness.run_epochs(sc, 1)
        assert second.txid in sc.node.included_txids
        assert sc.node.pending_transactions() == []
        assert harness.wallet(sc, BOB).balance() == 20
        assert harness.wallet(sc, ALICE) is harness.wallet(sc, ALICE)

    def test_accounts_deterministic(self):
        assert Account.named("x").keypair.address == Account.named("x").keypair.address
        a, b = make_accounts(2)
        assert a.keypair.address != b.keypair.address


class TestBlockDelivery:
    """``mine`` announces each MC block to the node a handle holds at
    delivery time, and a sync that raises fails the ``mine``."""

    def test_a_failing_sync_fails_the_mine(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("delivery-fails", epoch_len=4, submit_len=2)

        def broken_sync():
            raise ConsensusError("sync refused")

        sc.node.sync = broken_sync
        with pytest.raises(ConsensusError, match="sync refused"):
            harness.mine(3)
        sc.node.close()

    def test_a_replaced_node_is_the_one_synced(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("delivery-swap", epoch_len=4, submit_len=2)
        harness.mine(1)
        old = sc.node
        old.crash()
        sc.node = LatusNode(
            config=sc.config, params=old.params, mc_node=harness.mc, creator=old.creator
        )
        synced = old.synced_mc_height
        harness.mine(5)
        assert sc.node.synced_mc_height == harness.mc.height
        assert old.synced_mc_height == synced
        old.close()
        sc.node.close()

    def test_a_crashed_node_is_skipped_until_it_restarts(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("delivery-crash", epoch_len=4, submit_len=2)
        sc.node.crash()
        harness.mine(2)
        sc.node.restart()
        harness.mine(1)
        assert sc.node.synced_mc_height == harness.mc.height
        sc.node.close()
