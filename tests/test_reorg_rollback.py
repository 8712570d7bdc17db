"""Regression tests for partial rollback on MC reorgs.

An earlier design rebuilt the whole sidechain on any MC reorg, which let
pending transactions slip into *historical* epochs and diverge from
certificates the mainchain had already adopted (caught by the auditor).
The paper's rule (§5.1) is surgical: only SC blocks referencing orphaned
MC blocks revert.  These tests pin that behaviour down.
"""

import shutil

import pytest

from repro.crypto.keys import KeyPair
from repro.latus.audit import SidechainAuditor
from repro.latus.node import LatusNode
from repro.scenarios import ZendooHarness
from repro.storage.pages import PagedNodeStore
from tests.test_mainchain_chain import make_block

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


def reorg(harness, depth: int, extra: int = 2, ts_base: int = 77_000) -> None:
    mc = harness.mc
    parent = mc.chain.block_at_height(mc.height - depth)
    for i in range(depth + extra):
        block = make_block(parent, params=mc.params, ts=ts_base + i)
        mc.chain.add_block(block)
        parent = block


@pytest.fixture
def scenario():
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("rollback", epoch_len=4, submit_len=3)
    harness.forward_transfer(sc, ALICE, 60_000)
    harness.run_epochs(sc, 2)
    return harness, sc


class TestPartialRollback:
    def test_history_below_fork_is_preserved(self, scenario):
        """Blocks whose references survived the reorg must stay identical —
        the pre-fix behaviour rewrote them."""
        harness, sc = scenario
        before = [b.hash for b in sc.node.blocks]
        certs_before = [c.id for c in sc.node.certificates]
        reorg(harness, depth=2)
        sc.node.sync()
        after = [b.hash for b in sc.node.blocks]
        shared = min(len(before), len(after))
        # everything below the fork point is byte-identical
        surviving = [h for h in before if h in after]
        assert after[: len(surviving)] == surviving
        assert surviving, "some history must survive a shallow reorg"
        # early certificates were not regenerated
        assert [c.id for c in sc.node.certificates][: len(certs_before) - 1] == certs_before[
            : len(certs_before) - 1
        ]

    def test_pending_tx_does_not_leak_into_history(self, scenario):
        """A transaction submitted after epoch 0 closed must not appear in
        any epoch-0 block after a reorg."""
        harness, sc = scenario
        tx = harness.wallet(sc, ALICE).pay(BOB.address, 1_000)
        reorg(harness, depth=2)
        sc.node.sync()
        harness.mine(4)
        schedule = sc.config.schedule
        for block in sc.node.blocks:
            if not block.mc_refs:
                continue
            epoch = schedule.epoch_of_height(block.mc_refs[-1].mc_height)
            if epoch == 0:
                assert tx.txid not in {t.txid for t in block.transactions}

    def test_audit_stays_clean_across_reorg(self, scenario):
        """The exact regression: post-reorg history must still match the
        MC-adopted certificates."""
        harness, sc = scenario
        harness.wallet(sc, ALICE).pay(BOB.address, 1_000)
        reorg(harness, depth=2)
        sc.node.sync()
        harness.mine(6)
        auditor = SidechainAuditor(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator_address=sc.node.creator.address,
        )
        report = auditor.audit(sc.node.blocks)
        assert report.clean, (report.violations, report.certificate_mismatches)

    def test_reverted_certificate_is_resubmitted(self, scenario):
        """A certificate orphaned together with its adopting block is
        re-queued and re-adopted while its window is still open."""
        harness, sc = scenario
        entry = harness.mc.state.cctp.entry(sc.ledger_id)
        adopted_before = set(entry.certificates)
        # orphan only the newest block (likely carrying the latest cert)
        reorg(harness, depth=1, extra=1, ts_base=88_000)
        sc.node.sync()
        harness.mine(2)
        entry = harness.mc.state.cctp.entry(sc.ledger_id)
        assert set(entry.certificates) >= adopted_before

    def test_deep_reorg_falls_back_to_full_rebuild(self, scenario):
        """When every SC block referenced the orphaned branch, the node
        rebuilds from scratch (and the result is still audit-clean)."""
        harness, sc = scenario
        depth = harness.mc.height - sc.config.start_block + 1
        reorg(harness, depth=depth, extra=3, ts_base=99_000)
        sc.node.sync()
        harness.mine(4)
        assert sc.node.synced_mc_height == harness.mc.height
        auditor = SidechainAuditor(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator_address=sc.node.creator.address,
        )
        report = auditor.audit(sc.node.blocks)
        assert report.clean, (report.violations, report.certificate_mismatches)


# ---------------------------------------------------------------------------
# One rollback path: the kept chain is re-derived from the node's own blocks
# and certificate anchors, the same way before and after a restart.
# ---------------------------------------------------------------------------


def count_proofs(node) -> list[int]:
    """Epoch ids ``node`` proves from now on (wraps its prover in place)."""
    proved: list[int] = []
    prove = node.prover.prove_epoch

    def counting(start_state, transitions):
        proved.append(node.epoch_id)
        return prove(start_state, transitions)

    node.prover.prove_epoch = counting
    return proved


def restart_twice(*nodes) -> None:
    for _ in range(2):
        for node in nodes:
            node.crash()
            node.restart()


@pytest.fixture
def durable(tmp_path):
    """A forger and a ``forger_keys=[]`` validator, both on disk, 10 blocks.

    Epochs span 4 MC blocks from height 4, so the chain references MC
    heights 4..13 and epochs 0 and 1 are certified; a depth-2 reorg
    orphans heights 12 and 13, i.e. the last two blocks.
    """
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain(
        "rollback", epoch_len=4, submit_len=3, data_dir=tmp_path / "forger"
    )
    validator = LatusNode(
        config=sc.config,
        params=sc.node.params,
        mc_node=harness.mc,
        creator=sc.node.creator,
        forger_keys=[],
        auto_submit_certificates=False,
        data_dir=tmp_path / "validator",
    )
    harness.forward_transfer(sc, ALICE, 60_000)
    while sc.node.height < 9:
        harness.mine(1)
        validator.sync()
        for block in sc.node.blocks[validator.height + 1 :]:
            validator.receive_block(block)
    assert [b.mc_refs[-1].mc_height for b in sc.node.blocks] == list(range(4, 14))
    yield harness, sc, validator
    validator.close()
    sc.node.close()


class TestRollbackAfterRestart:
    def test_restarted_forger_keeps_history_below_the_fork(self, durable):
        harness, sc, _ = durable
        # a payment still pending at the reorg: a rebuild from the empty
        # chain would forge it into the first block after Alice's funding
        harness.wallet(sc, ALICE).pay(BOB.address, 1_000)
        before = list(sc.node.blocks)
        certificates = [c.id for c in sc.node.certificates]
        restart_twice(sc.node)
        proved = count_proofs(sc.node)
        reorg(harness, depth=2)
        sc.node.sync()
        assert [b.hash for b in sc.node.blocks[:8]] == [b.hash for b in before[:8]]
        assert [c.id for c in sc.node.certificates[:2]] == certificates
        assert proved == [2]  # only the epoch the new branch closes

    def test_restarted_validator_keeps_history_below_the_fork(self, durable):
        harness, sc, validator = durable
        before = [b.hash for b in validator.blocks]
        restart_twice(validator)
        reorg(harness, depth=2)
        validator.sync()
        assert validator.height == 7
        assert [b.hash for b in validator.blocks] == before[:8]
        assert len(validator.certificates) == 2

    def test_paged_node_stays_paged_after_restart_and_reorg(self, tmp_path):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "rollback", epoch_len=4, submit_len=3, data_dir=tmp_path / "sc"
        )
        harness.forward_transfer(sc, ALICE, 60_000)
        harness.run_epochs(sc, 4)
        certified = len(sc.node.certificates)
        assert certified >= 4
        sc.node.crash()
        sc.node.restart()
        # the logged anchors decode straight onto the node's paged store,
        # and the rollback takes its state from one of them
        reorg(harness, depth=2)
        sc.node.sync()
        assert len(sc.node.certificates) >= certified - 1
        states = [sc.node.state] + [a.state_snapshot for a in sc.node.anchors.values()]
        assert all(isinstance(s.mst.node_store, PagedNodeStore) for s in states)
        auditor = SidechainAuditor(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator_address=sc.node.creator.address,
        )
        assert auditor.audit(sc.node.blocks).clean
        sc.node.close()


class TestResyncAfterRollback:
    """Synced MC heights that no kept block references are processed again.

    Alice forges and Bob (not registered) holds half the stake, so Bob's
    slots are skipped and Alice's next block references the queued MC
    blocks.  At MC height 13 heights 12 and 13 are queued; at 14 they are
    the lower references of the tip block.  A depth-1 reorg orphans the
    top height only: heights 12 (and 13) survive but are referenced by no
    kept block, so the next block must reference them again.
    """

    @pytest.mark.parametrize("mc_height, refs", [(13, [11]), (14, [12, 13, 14])])
    def test_next_block_references_stay_contiguous(self, mc_height, refs):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("skips", epoch_len=4, submit_len=3)
        harness.forward_transfer(sc, ALICE, 30_000)
        harness.forward_transfer(sc, BOB, 30_000, register_forger=False)
        while harness.mc.height < mc_height:
            harness.mine(1)
        assert [r.mc_height for r in sc.node.blocks[-1].mc_refs] == refs
        height = sc.node.height
        reorg(harness, depth=1)
        sc.node.sync()
        while sc.node.height <= height:
            harness.mine(1)
        referenced = [r.mc_height for b in sc.node.blocks for r in b.mc_refs]
        assert referenced == list(range(referenced[0], referenced[-1] + 1))
        validator = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            forger_keys=[],
            auto_submit_certificates=False,
        )
        validator.bootstrap_from(list(sc.node.blocks))
        assert validator.tip_hash == sc.node.tip_hash


def node_fingerprint(node) -> dict:
    """Every field a rollback must restore (not the MC-following queue)."""
    return {
        "height": node.height,
        "tip": node.tip_hash,
        "digest": node.state.digest(),
        "touched": node.state.mst.touched_positions,
        "bts": list(node.state.backward_transfers),
        "utxos": dict(node.utxo_index),
        "last_ref": node.last_referenced_mc_height,
        "epoch": (
            node.epoch_id,
            node.epoch_start_state().digest(),
            [b.hash for b in node.epoch_blocks],
        ),
        "included": set(node.included_txids),
        "certificates": [c.id for c in node.certificates],
        "anchors": {
            e: (a.certificate.id, a.mst_root, a.state_snapshot.digest(), a.mst_delta)
            for e, a in node.anchors.items()
        },
        "seeds": dict(node._epoch_seeds),
        "stakes": dict(node._epoch_stakes),
    }


class TestForwardHistoryOracle:
    """A rollback lands exactly where the forward run stood after its last
    kept block, for every divergence height the chain references."""

    @pytest.fixture(scope="class")
    def forward(self, tmp_path_factory):
        harness = ZendooHarness()
        harness.mine(2)
        data_dir = tmp_path_factory.mktemp("oracle") / "sc"
        sc = harness.create_sidechain(
            "oracle", epoch_len=4, submit_len=3, data_dir=data_dir
        )
        recorded = [node_fingerprint(sc.node)]
        harness.forward_transfer(sc, ALICE, 60_000)
        wallet = harness.wallet(sc, ALICE)
        while sc.node.height < 12:
            if sc.node.height in (5, 10, 11):
                wallet.pay(BOB.address, 1_000 + sc.node.height)
            harness.mine(1)
            # one block per MC block: every kept prefix has a record
            assert sc.node.height == len(recorded) - 1
            recorded.append(node_fingerprint(sc.node))
        assert len(sc.node.certificates) == 3
        assert any(b.transactions for b in sc.node.epoch_blocks), (
            "the open epoch must carry payments"
        )
        sc.node.close()
        return harness, sc, data_dir, recorded

    def test_live_node_rolls_back_to_each_recorded_prefix(self, forward):
        harness, sc, data_dir, recorded = forward
        node = LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=sc.node.creator,
            auto_submit_certificates=False,
        )
        node.bootstrap_from(list(sc.node.blocks))
        proved = count_proofs(node)
        heights = [b.mc_refs[-1].mc_height for b in sc.node.blocks]
        for keep in reversed(range(len(heights))):
            node._rollback_before(heights[keep])
            assert node_fingerprint(node) == recorded[keep], keep
        assert proved == []
        node.close()

    def test_restarted_node_rolls_back_to_each_recorded_prefix(
        self, forward, tmp_path
    ):
        harness, sc, data_dir, recorded = forward
        heights = [b.mc_refs[-1].mc_height for b in sc.node.blocks]
        for keep, divergence in enumerate(heights):
            copy = tmp_path / f"keep-{keep}"
            shutil.copytree(data_dir, copy)
            node = LatusNode(
                config=sc.config,
                params=sc.node.params,
                mc_node=harness.mc,
                creator=sc.node.creator,
                auto_submit_certificates=False,
                data_dir=copy,
            )
            assert node_fingerprint(node) == recorded[-1]
            proved = count_proofs(node)
            node._rollback_before(divergence)
            assert node_fingerprint(node) == recorded[keep], keep
            assert proved == []
            node.close()
