"""Long-horizon system test: global invariants over a busy deployment.

Runs two sidechains for many epochs with payments, withdrawals, a BTR,
supersession-prone certificate traffic and an MC reorg in the middle, then
audits every global invariant at once.  This is the closest thing to a
soak test the deterministic harness supports.
"""

import pytest

from repro.core.cctp import SidechainStatus
from repro.crypto.keys import KeyPair
from repro.latus.audit import SidechainAuditor
from repro.scenarios import PaymentWorkload, ZendooHarness, make_accounts

# long-horizon soak test: excluded from the CI tier-1 job, run nightly
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def busy_world():
    harness = ZendooHarness()
    harness.mine(2)
    # generous submission windows so the mid-test reorg (which inserts
    # certificate-less fork blocks) cannot starve a window outright
    sc_a = harness.create_sidechain("stress-a", epoch_len=5, submit_len=4)
    sc_b = harness.create_sidechain("stress-b", epoch_len=6, submit_len=4)

    accounts = make_accounts(4, prefix="stress")
    workload = PaymentWorkload(harness, sc_a, accounts, seed=b"stress")
    workload.fund_all(50_000)
    exit_user = KeyPair.from_seed("stress/exit")
    harness.forward_transfer(sc_b, exit_user, 77_000)
    harness.mine(3)

    # several rounds of traffic
    for _ in range(4):
        workload.submit_payments(6, max_amount=2_000)
        harness.mine(3)

    # a withdrawal from A and a BTR from B
    dest = KeyPair.from_seed("stress/dest")
    harness.wallet(sc_a, accounts[0].keypair).withdraw(dest.address, 5_000)
    utxo_b = harness.wallet(sc_b, exit_user).utxos()[0]
    btr_dest = KeyPair.from_seed("stress/btr-dest")
    if sc_b.node.anchors:
        btr = harness.make_btr(sc_b, utxo_b, exit_user, btr_dest.address)
        harness.submit_btr(btr)

    # a shallow MC reorg in the middle of everything
    from tests.test_mainchain_chain import make_block

    fork_point = harness.mc.chain.block_at_height(harness.mc.height - 1)
    parent = fork_point
    for i in range(3):
        block = make_block(parent, params=harness.mc.params, ts=40_000 + i)
        harness.mc.chain.add_block(block)
        parent = block
    for handle in (sc_a, sc_b):
        handle.node.sync()

    harness.mine(14)

    # a last withdrawal mined up to its certificate's adoption but not to
    # the payout's maturity, so the invariants below see a pending payout
    late_dest = KeyPair.from_seed("stress/late-dest")
    harness.wallet(sc_a, accounts[1].keypair).withdraw(late_dest.address, 3_000)

    def late_payout_pending():
        pending = harness.mc.state.pending_payouts.values()
        return any(late_dest.address in payouts[2::2] for payouts in pending)

    for _ in range(2 * sc_a.config.epoch_len + sc_a.config.submit_len):
        if late_payout_pending():
            break
        harness.mine(1)
    assert late_payout_pending()
    assert len(harness.mc.state.pending_payouts) >= 1
    assert harness.mc.state.utxos.balance_of(late_dest.address) == 0
    return harness, sc_a, sc_b, accounts, dest, btr_dest, exit_user


class TestGlobalInvariants:
    def test_both_sidechains_survived(self, busy_world):
        harness, sc_a, sc_b, *_ = busy_world
        cctp = harness.mc.state.cctp
        assert cctp.status(sc_a.ledger_id) is SidechainStatus.ACTIVE
        assert cctp.status(sc_b.ledger_id) is SidechainStatus.ACTIVE

    def test_safeguard_balances_non_negative(self, busy_world):
        harness, sc_a, sc_b, *_ = busy_world
        assert harness.mc.state.cctp.balance(sc_a.ledger_id) >= 0
        assert harness.mc.state.cctp.balance(sc_b.ledger_id) >= 0

    def test_value_conservation_per_sidechain(self, busy_world):
        """MC-side balance == SC-side circulating value + queued BTs, with
        every certificate the MC adopted already debited."""
        harness, sc_a, sc_b, accounts, *_ = busy_world
        for handle in (sc_a, sc_b):
            node = handle.node
            sc_value = sum(
                u.amount
                for u in node.utxo_index.values()
                if node.state.mst.contains(u)
            ) + sum(bt.amount for bt in node.state.backward_transfers)
            mc_balance = harness.mc.state.cctp.balance(handle.ledger_id)
            # adopting a certificate debits its BTs from the safeguard at
            # once, so payouts still awaiting maturity are no longer locked
            assert mc_balance == sc_value
            # ...and they are exactly the BTs of the adopted certificates
            # whose epoch's ceasing height the MC has not reached
            entry = harness.mc.state.cctp.entry(handle.ledger_id)
            unmatured = sum(
                bt.amount
                for epoch, record in entry.certificates.items()
                if handle.config.schedule.ceasing_height(epoch) > harness.mc.height
                for bt in record.certificate.bt_list
            )
            pending = sum(
                sum(payouts[3::2])
                for payouts in harness.mc.state.pending_payouts.values()
                if payouts[0] == handle.ledger_id
            )
            assert pending == unmatured

    def test_mc_supply_is_exactly_issuance_minus_locked(self, busy_world):
        harness, sc_a, sc_b, *_ = busy_world
        mc = harness.mc
        issuance = mc.params.block_reward * mc.height
        locked = mc.state.cctp.balance(sc_a.ledger_id) + mc.state.cctp.balance(
            sc_b.ledger_id
        )
        pending = sum(
            sum(payouts[3::2])
            for payouts in mc.state.pending_payouts.values()
        )
        assert mc.state.utxos.total_supply() == issuance - locked - pending

    def test_withdrawals_arrived(self, busy_world):
        harness, sc_a, sc_b, accounts, dest, btr_dest, exit_user = busy_world
        assert harness.mc.state.utxos.balance_of(dest.address) >= 5_000

    def test_continuous_certificate_coverage(self, busy_world):
        harness, sc_a, sc_b, *_ = busy_world
        for handle in (sc_a, sc_b):
            entry = harness.mc.state.cctp.entry(handle.ledger_id)
            epochs = sorted(entry.certificates)
            assert epochs == list(range(len(epochs))), "gap in certified epochs"

    def test_full_history_audits_clean(self, busy_world):
        harness, sc_a, *_ = busy_world
        auditor = SidechainAuditor(
            config=sc_a.config,
            params=sc_a.node.params,
            mc_node=harness.mc,
            creator_address=sc_a.node.creator.address,
        )
        report = auditor.audit(sc_a.node.blocks)
        assert report.clean, (report.violations, report.certificate_mismatches)
        assert report.blocks_verified == len(sc_a.node.blocks)
