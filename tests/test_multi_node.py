"""Integration tests for a decentralized Latus deployment on the harness.

One node per forger key (§5.1): the sidechain's first node holds the
creator's key and :meth:`ZendooHarness.add_node` runs one node per
stakeholder beside it.  Every block a node forges reaches the others over
the harness's network in the wire encoding, each validates it through
``receive_block`` (leader lottery, commitment proofs, state re-execution)
and all nodes stay byte-for-byte convergent.
"""

import pytest

from repro import wire
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError, NetworkError
from repro.latus.block import forge_block
from repro.latus.params import LatusParams
from repro.latus.state import LatusState
from repro.latus.transactions import pack_receiver_metadata
from repro.latus.utxo import address_to_field
from repro.latus.wallet import LatusWallet
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import TransactionBuilder
from repro.network import FaultPlan
from repro.scenarios import ZendooHarness
from tests.test_certificate_check import count_calls
from tests.test_faults import moved_since, snapshot

MINER = KeyPair.from_seed("mnode/miner")
CREATOR = KeyPair.from_seed("mnode/creator")
STAKERS = [KeyPair.from_seed(f"mnode/staker-{i}") for i in range(3)]


@pytest.fixture
def deployment():
    harness = ZendooHarness(
        MainchainParams(pow_zero_bits=2, coinbase_maturity=1), miner_seed="mnode/miner"
    )
    harness.mine(2)
    sc = harness.create_sidechain(
        "mnode",
        epoch_len=4,
        submit_len=2,
        latus_params=LatusParams(mst_depth=10, slots_per_epoch=6),
        creator=CREATOR,
        proving_strategy="batched",
    )
    for i, staker in enumerate(STAKERS):
        harness.add_node(sc, f"node-{i}", forger_keys=[staker], proving_strategy="batched")
    yield harness, sc
    for node in sc.nodes.values():
        node.close()


def fund(harness, sc, receiver: KeyPair, amount: int) -> None:
    """Spend the miner's first spendable coin into a forward transfer."""
    mc = harness.mc
    height = mc.height
    for outpoint, coin in mc.state.utxos.coins_of(MINER.address):
        if coin.spendable_at(height + 1):
            tx = (
                TransactionBuilder()
                .spend(outpoint, MINER, coin.output.amount)
                .forward_transfer(
                    sc.ledger_id,
                    pack_receiver_metadata(receiver.address, receiver.address),
                    amount,
                )
                .change_to(MINER.address)
                .build()
            )
            mc.submit_transaction(tx)
            return
    raise AssertionError("no spendable miner coin")


SENDS = 'repro_network_messages_total{kind="send"}'
BROADCASTS = 'repro_network_messages_total{kind="broadcast"}'


#: The funded three-stakeholder run as the former lockstep deployment (every
#: node synced, then every forged block handed to every peer) ran it: final
#: height, tip, state digest and certificate ids, and what the run did.
PARITY_HEIGHT = 16
PARITY_TIP = "99bf28f753fff6d90ff2dcb6faae821eb65cecf8c0435f28fe241dbd7ca9d19c"
PARITY_DIGEST = 0x13D6A917B51A233C62139F7B01AAA450DAC00B44A1844CB76D6E073EE45F1D21
PARITY_CERTIFICATES = [
    "b34bedca4e907d231aaac4da88b29a3aae9cfcbc30fcefb81f4197cb28f2e926",
    "ab183bba5120b1ec2cdad4a7164ff079147a9d9032bd4776e57d74918f91ab83",
    "715a1a94d82b5e4856d65e33de9bdc92a6b57df6be2dcab2e485d33efa18c2bf",
    "f1c3ec3875bb8c7459325cb30773308bca6f7dbed16763de4bcdfa4da71c8fd0",
]
PARITY_FORGED = 17
PARITY_STATE_CALLS = {"apply": 21, "copy": 34}


class TestConvergence:
    def test_nodes_stay_convergent(self, deployment):
        """Lockstep under a clean fault plan: every round ends with every
        node on one chain, no resync needed and no fault fired."""
        harness, sc = deployment
        harness.network.faults = FaultPlan()
        for _ in range(10):
            harness.mine(1)
            assert harness.converge(sc) == 0
        assert sc.node.height >= 0
        assert harness.network.fault_schedule() == b""
        assert sc.node.last_referenced_mc_height == harness.mc.height

    def test_funded_stakeholders_forge(self, deployment, monkeypatch):
        """Parity with the lockstep deployment: same chain, certificates and
        operation counts, and wire delivery adds no operation."""
        harness, sc = deployment
        calls = count_calls(monkeypatch, LatusState, "apply", "copy")
        before = snapshot()
        for staker, amount in zip(STAKERS, (5000, 3000, 2000)):
            fund(harness, sc, staker, amount)
            harness.mine(1)
        # run past a consensus-epoch boundary so stake-based slots kick in
        harness.mine(14)
        assert harness.converge(sc) == 0
        moved = moved_since(before)

        node, nodes = sc.node, len(sc.nodes)
        assert (
            node.height,
            node.tip_hash.hex(),
            node.state.digest(),
            [c.id.hex() for c in node.certificates],
        ) == (PARITY_HEIGHT, PARITY_TIP, PARITY_DIGEST, PARITY_CERTIFICATES)
        forged = moved["repro_latus_blocks_forged_total"]
        assert forged == PARITY_FORGED
        assert moved["repro_latus_blocks_received_total"] == forged * (nodes - 1)
        assert calls == PARITY_STATE_CALLS
        # each of the 17 MC blocks is announced to every node, each SC block
        # is sent once to every other node, and none is refused
        assert moved[BROADCASTS] == 17
        assert moved[SENDS] - 17 * nodes == forged * (nodes - 1)
        assert not [name for name in moved if "blocks_refused" in name]

        stake_forgers = {
            name
            for name, peer in sc.peers.items()
            if any(block.forger_addr in peer.forgers for block in node.blocks)
        }
        assert stake_forgers, "no stakeholder forged"

    def test_certificates_from_distributed_forgers(self, deployment):
        harness, sc = deployment
        fund(harness, sc, STAKERS[0], 5000)
        harness.mine(12)
        assert harness.converge(sc) == 0
        entry = harness.mc.state.cctp.entry(sc.ledger_id)
        assert len(entry.certificates) >= 2
        # every node holds the anchors for the adopted epochs
        for node in sc.nodes.values():
            for epoch in entry.certificates:
                assert epoch in node.anchors

    def test_payment_propagates_through_foreign_blocks(self, deployment):
        harness, sc = deployment
        fund(harness, sc, STAKERS[0], 5000)
        harness.mine(2)
        # submit the payment on ONE node only; it is included when that
        # node's key wins a slot and validated by everyone else
        wallet = LatusWallet(sc.peers["node-0"], STAKERS[0])
        wallet.pay(STAKERS[1].address, 1200)
        harness.mine(10)
        assert harness.converge(sc) == 0
        receiver_addr = address_to_field(STAKERS[1].address)
        for node in sc.nodes.values():
            assert node.stake_distribution().stake_of(receiver_addr) == 1200


class TestOneNode:
    def test_a_lone_node_sends_nothing_but_announcements(self, monkeypatch):
        """A sidechain with one node gossips nothing: each MC block costs one
        announcement and no block is encoded for the wire."""
        encoded = []
        monkeypatch.setattr(
            wire, "encode_sidechain_block", lambda block: encoded.append(block)
        )
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("lone", epoch_len=4, submit_len=2)
        before = snapshot()
        harness.mine(6)
        moved = moved_since(before)
        assert sc.node.height >= 0
        assert (moved[SENDS], moved[BROADCASTS], encoded) == (6, 6, [])
        # a second node may not take over the first one's network name
        with pytest.raises(NetworkError):
            harness.add_node(sc, sc.name)
        sc.node.close()


class TestGossipGap:
    def test_a_missed_block_is_fetched_from_its_sender(self):
        """One dropped gossip message: the validator asks the forger for the
        block it missed when the next one arrives, and reaches the tip with
        no ``converge`` and no refused block."""
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("gossip-gap", epoch_len=4, submit_len=2)
        validator = harness.add_node(sc, "node-0")
        harness.mine(3)
        assert validator.tip_hash == sc.node.tip_hash
        harness.network.faults = FaultPlan(seed=b"gap", link_drop={(sc.name, "node-0"): 1.0})
        before = snapshot()
        harness.mine(1)
        harness.network.faults = None
        assert moved_since(before)['repro_network_dropped_total{reason="fault"}'] == 1
        assert validator.height == sc.node.height - 1
        before = snapshot()
        harness.mine(1)
        moved = moved_since(before)
        assert (validator.height, validator.tip_hash) == (sc.node.height, sc.node.tip_hash)
        assert moved["repro_latus_block_fetches_total"] == 1
        assert not [name for name in moved if "blocks_refused" in name]
        for node in sc.nodes.values():
            node.close()


class TestTelemetry:
    def test_every_node_is_reported_by_network_name(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("telemetry-nodes", epoch_len=4, submit_len=2)
        validator = harness.add_node(sc, "node-0")
        harness.run_epochs(sc, 1)
        sidechains = harness.telemetry()["sidechains"]
        assert set(sidechains) == {sc.name, "node-0"}
        for name, node in sc.nodes.items():
            summary = sidechains[name]
            assert summary["ledger_id"] == sc.ledger_id.hex()[:16]
            assert (summary["height"], summary["certificates"]) == (
                node.height,
                len(node.certificates),
            )
        # the creator's node proved the epoch; the validator checked its
        # certificate and proved nothing
        assert sidechains[sc.name]["last_epoch_stats"]["wall_seconds"] > 0
        assert sidechains["node-0"]["last_epoch_stats"] is None
        assert validator.certificates == sc.node.certificates
        for node in sc.nodes.values():
            node.close()


class TestEquivocationDefence:
    def test_foreign_block_with_wrong_digest_rejected(self, deployment):
        harness, sc = deployment
        harness.mine(3)
        node = sc.node
        forged = forge_block(
            parent_hash=node.tip_hash,
            height=node.height + 1,
            slot=harness.mc.height + 1 - sc.config.start_block,
            forger=CREATOR,
            mc_refs=(),
            transactions=(),
            state_digest=777,
        )
        victim = sc.peers["node-1"]
        before = snapshot()
        with pytest.raises(ConsensusError):
            victim.receive_block(forged)
        refused = {k: v for k, v in moved_since(before).items() if "refused" in k}
        assert refused == {'repro_latus_blocks_refused_total{reason="ConsensusError"}': 1}
