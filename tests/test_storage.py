"""Durability tests: the StateStore contract and restart-from-disk nodes.

The scenarios the storage engine exists for: a node is kill -9'd mid-epoch
(the in-memory objects are simply dropped), a fresh node opens the same
data directory and replays snapshot + WAL back to a byte-identical chain
digest — no full peer resync.  Only the tail past the last fsync ever
needs a peer.
"""

import os
import warnings

import pytest

from repro import lifecycle, observability, wire
from repro.crypto.keys import KeyPair
from repro.errors import NodeCrashed, OrphanBlock, StorageError
from repro.latus.node import LatusNode
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    PaymentTx,
)
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import SidechainDeclarationTx
from repro.network.faults import FaultPlan, partition
from repro.scenarios import ZendooHarness
from repro.scenarios.harness import latus_sidechain_config
from repro.storage import (
    MC_BLOCK,
    SC_BLOCK,
    SC_CERT,
    SC_TX,
    FileStore,
    MemoryStore,
    StateStore,
    frame_record,
    inspect_store,
    read_wal,
)
from repro.storage import codec as storage_codec
from tests.test_faults import chaos_run
from tests.test_reorg_rollback import node_fingerprint

ALICE = KeyPair.from_seed("store/alice")
BOB = KeyPair.from_seed("store/bob")
CAROL = KeyPair.from_seed("store/carol")
MINER = KeyPair.from_seed("store/miner")


# ---------------------------------------------------------------------------
# StateStore contract (both backends)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path) -> StateStore:
    if request.param == "memory":
        s = MemoryStore()
    else:
        s = FileStore(tmp_path / "store")
    yield s
    s.close()


class TestStateStoreContract:
    def test_empty_store(self, store):
        assert store.is_empty()
        assert store.latest_snapshot() is None
        assert store.records() == []

    def test_append_and_read_back(self, store):
        store.append(SC_TX, b"tx-payload")
        store.append(SC_BLOCK, b"block-payload")
        assert store.records() == [(SC_TX, b"tx-payload"), (SC_BLOCK, b"block-payload")]
        assert not store.is_empty()

    def test_staged_records_invisible_until_commit(self, store):
        store.stage(SC_TX, b"a")
        store.stage(SC_TX, b"b")
        assert store.records() == []
        store.commit()
        assert store.records() == [(SC_TX, b"a"), (SC_TX, b"b")]

    def test_snapshot_compacts_the_wal(self, store):
        store.append(SC_TX, b"pre")
        store.write_snapshot(3, {"latus/state": b"state-bytes"})
        assert store.records() == []
        assert store.latest_snapshot() == (3, {"latus/state": b"state-bytes"})
        store.append(SC_BLOCK, b"tail")
        assert store.records() == [(SC_BLOCK, b"tail")]

    def test_snapshot_commits_staged_records_first(self, store):
        # write_snapshot is a durability point: staged records must not be
        # silently dropped, they are folded into the snapshot's WAL flush
        store.stage(SC_TX, b"staged")
        store.write_snapshot(1, {"s": b""})
        assert store.records() == []  # compacted, not lost

    def test_reset_wipes_everything(self, store):
        store.append(SC_TX, b"x")
        store.write_snapshot(1, {"s": b"y"})
        store.append(SC_TX, b"z")
        store.reset()
        assert store.is_empty()

    def test_unknown_kind_rejected_eagerly(self, store):
        with pytest.raises(StorageError):
            store.stage(99, b"payload")

    def test_describe_names_the_backend(self, store):
        assert store.describe()["backend"] in ("memory", "file")


class TestReadOnly:
    def test_memory_read_only_refuses_writes(self):
        store = MemoryStore(read_only=True)
        for call in (
            lambda: store.stage(SC_TX, b"x"),
            store.commit,
            lambda: store.write_snapshot(0, {}),
            store.reset,
        ):
            with pytest.raises(StorageError, match="read-only"):
                call()

    def test_file_read_only_refuses_writes(self, tmp_path):
        FileStore(tmp_path / "d").close()
        store = FileStore(tmp_path / "d", read_only=True)
        with pytest.raises(StorageError, match="read-only"):
            store.append(SC_TX, b"x")
        with pytest.raises(StorageError, match="read-only"):
            store.write_snapshot(0, {})
        store.close()

    def test_read_only_requires_an_existing_store(self, tmp_path):
        with pytest.raises(StorageError, match="no store at"):
            FileStore(tmp_path / "missing", read_only=True)

    def test_read_only_reads_a_writer_store(self, tmp_path):
        writer = FileStore(tmp_path / "d")
        writer.append(SC_TX, b"visible")
        writer.write_snapshot(2, {"k": b"v"})
        writer.append(SC_BLOCK, b"tail")
        reader = FileStore(tmp_path / "d", read_only=True)
        assert reader.latest_snapshot() == (2, {"k": b"v"})
        assert reader.records() == [(SC_BLOCK, b"tail")]
        reader.close()
        writer.close()


class TestFileStoreDurability:
    def test_reopen_sees_committed_records(self, tmp_path):
        store = FileStore(tmp_path / "d")
        store.append(SC_TX, b"committed")
        store.stage(SC_TX, b"staged-but-never-committed")
        del store  # kill -9: staged group was never flushed

        reopened = FileStore(tmp_path / "d")
        assert reopened.records() == [(SC_TX, b"committed")]
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        store = FileStore(tmp_path / "d")
        store.append(SC_TX, b"whole")
        store.close()
        wal = tmp_path / "d" / "wal.log"
        good = wal.read_bytes()
        # a record torn mid-write by the crash: valid frame prefix, truncated
        torn = frame_record(SC_BLOCK, b"this-record-was-torn")[:-4]
        wal.write_bytes(good + torn)

        reopened = FileStore(tmp_path / "d")
        assert reopened.records() == [(SC_TX, b"whole")]
        # the repair physically truncated the file so appends stay parseable
        assert wal.read_bytes() == good
        reopened.close()

    def test_complete_unknown_record_is_corruption(self, tmp_path):
        store = FileStore(tmp_path / "d")
        store.append(SC_TX, b"ok")
        store.close()
        wal = tmp_path / "d" / "wal.log"
        bogus = bytes([200]) + len(b"zz").to_bytes(4, "little") + b"zz"
        wal.write_bytes(wal.read_bytes() + bogus)
        with pytest.raises(StorageError):
            FileStore(tmp_path / "d")

    def test_corrupt_manifest_rejected(self, tmp_path):
        store = FileStore(tmp_path / "d")
        store.write_snapshot(1, {"s": b"x"})
        store.close()
        (tmp_path / "d" / "MANIFEST").write_bytes(b"garbage")
        with pytest.raises(StorageError):
            FileStore(tmp_path / "d")

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(StorageError):
            FileStore(tmp_path / "d", fsync="sometimes")

    def test_read_wal_reports_valid_length(self):
        framed = frame_record(SC_TX, b"abc")
        records, valid = read_wal(framed + framed[:3])
        assert records == [(SC_TX, b"abc")]
        assert valid == len(framed)


# ---------------------------------------------------------------------------
# Latus node: kill -9 mid-epoch, restart from disk
# ---------------------------------------------------------------------------


def _build_latus_history(data_dir, **node_kwargs):
    """FT + payment + two closed epochs + a mid-epoch tail, all on disk."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain(
        "durable", epoch_len=4, submit_len=2, data_dir=data_dir, **node_kwargs
    )
    harness.forward_transfer(sc, ALICE, 9_000)
    harness.mine(2)
    harness.wallet(sc, ALICE).pay(BOB.address, 1_500)
    harness.run_epochs(sc, 2)
    harness.mine(2)  # mid-epoch tail: blocks past the last snapshot
    return harness, sc


CREATOR_DURABLE = KeyPair.from_seed("durable/creator")  # harness derivation


def _recover_latus(harness, sc, data_dir, **node_kwargs) -> LatusNode:
    return LatusNode(
        config=sc.config,
        params=sc.node.params,
        mc_node=harness.mc,
        creator=CREATOR_DURABLE,
        data_dir=data_dir,
        **node_kwargs,
    )


class TestLatusDiskRecovery:
    def test_kill_mid_epoch_recovers_identical_digest(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        expected = (
            sc.node.height,
            sc.node.tip_hash,
            sc.node.state.digest(),
            len(sc.node.certificates),
            sc.node.epoch_id,
            sc.node.last_referenced_mc_height,
        )
        sc.node.close()  # the process dies; in-memory objects are gone

        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
            len(recovered.certificates),
            recovered.epoch_id,
            recovered.last_referenced_mc_height,
        ) == expected
        recovered.close()

    def test_restart_trusts_its_journal_where_a_resync_reverifies(self, tmp_path):
        """Why restarting from disk beats a peer resync: the digest-checked
        replay verifies no signature, while a fresh node syncing the same
        chain verifies every one it adopts."""
        from repro.crypto import signatures

        harness, sc = _build_latus_history(tmp_path / "sc")
        # a signed payment in the WAL tail: cross the next epoch snapshot
        # first, then pay
        harness.mine(1)
        harness.wallet(sc, BOB).pay(ALICE.address, 500)
        harness.mine(1)
        journal = FileStore(tmp_path / "sc", read_only=True)
        tail = [
            tx
            for kind, payload in journal.records()
            if kind == SC_BLOCK
            for tx in wire.decode_sidechain_block(payload).ordered_transitions()
        ]
        journal.close()
        assert any(isinstance(tx, PaymentTx) for tx in tail)
        verifies = observability.registry().counter("repro_signature_verifies_total")

        def verifications(run):
            signatures.clear_verify_cache()
            before = verifies.value()
            node = run()
            assert node.tip_hash == sc.node.tip_hash
            node.close()
            return verifies.value() - before

        restart = verifications(lambda: _recover_latus(harness, sc, tmp_path / "sc"))

        def resync():
            fresh = _recover_latus(harness, sc, tmp_path / "fresh")
            fresh.sync_from(sc.node)
            return fresh

        assert restart == 0
        assert verifications(resync) >= len(sc.node.blocks)
        sc.node.close()

    def test_recovery_counts_on_disk_recovery_metric(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        from repro.storage.store import _DISK_RECOVERIES

        before = _DISK_RECOVERIES.value
        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        assert _DISK_RECOVERIES.value == before + 1
        recovered.close()

    def test_wal_replay_is_idempotent(self, tmp_path):
        # recovering rewrites a fresh snapshot; recovering again from that
        # must land on the same chain — replay twice, compare everything
        for name, kwargs in (("flat", {}), ("paged", PAGED_KWARGS)):
            harness, sc = _build_latus_history(tmp_path / name, **kwargs)
            sc.node.close()
            first = _recover_latus(harness, sc, tmp_path / name, **kwargs)
            view = node_fingerprint(first)
            first.close()
            second = _recover_latus(harness, sc, tmp_path / name, **kwargs)
            assert node_fingerprint(second) == view, name
            second.close()

    def test_snapshot_plus_tail_equals_compacted(self, tmp_path):
        # the store holds snapshot + tail WAL right after the kill; after a
        # recovery it holds one compacted snapshot, folded mid-epoch.  Both
        # read back the same node.
        for name, kwargs in (("flat", {}), ("paged", PAGED_KWARGS)):
            data_dir = tmp_path / name
            harness, sc = _build_latus_history(data_dir, **kwargs)
            sc.node.close()
            probe = FileStore(data_dir, read_only=True)
            assert probe.records(), "scenario must leave a WAL tail to be meaningful"
            probe.close()

            first = _recover_latus(harness, sc, data_dir, **kwargs)
            view = node_fingerprint(first)
            first.close()
            probe = FileStore(data_dir, read_only=True)
            assert probe.records() == []  # compacted into the snapshot
            probe.close()
            second = _recover_latus(harness, sc, data_dir, **kwargs)
            assert node_fingerprint(second) == view, name
            second.close()

    def test_recovered_node_keeps_following_the_mc(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        # forger keys are secrets and are deliberately not persisted: the
        # operator re-registers them on the recovered node
        recovered.add_forger(CREATOR_DURABLE)
        recovered.add_forger(ALICE)
        sc.node = recovered  # the harness now drives the recovered node
        height = recovered.height
        harness.mine(4)
        assert recovered.height > height
        assert recovered.last_referenced_mc_height == harness.mc.height
        recovered.close()

    def test_restart_data_dir_is_the_recovery_entry_point(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        node = sc.node
        expected = (node.height, node.tip_hash, node.state.digest())
        node.crash()
        with pytest.raises(NodeCrashed):
            node.sync()
        node.restart(data_dir=tmp_path / "sc")
        assert (node.height, node.tip_hash, node.state.digest()) == expected
        node.close()

    def test_uncommitted_mempool_is_lost_on_crash(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        harness.wallet(sc, ALICE).pay(BOB.address, 10)
        assert sc.node.pending_transactions()
        sc.node.crash()
        sc.node.restart()
        # submitted txs were durably logged (SC_TX records), so they
        # survive even though the in-memory mempool was dropped
        assert sc.node.pending_transactions()
        sc.node.close()

    def test_wal_wallet_transactions_replay_once_in_order(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        wallet = harness.wallet(sc, ALICE)
        first = wallet.pay(BOB.address, 10)
        second = wallet.pay(BOB.address, 20)
        durable = [tx.txid for tx in sc.node.submitted_txs]
        assert durable[-2:] == [first.txid, second.txid]
        sc.node.close()
        # the same SC_TX record twice in the tail must not duplicate it
        wal = tmp_path / "sc" / "wal.log"
        wal.write_bytes(wal.read_bytes() + frame_record(SC_TX, first.encode()))
        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        assert [tx.txid for tx in recovered.submitted_txs] == durable
        recovered.close()

    def test_unreplayable_store_falls_back_to_empty_chain(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        data_dir = tmp_path / "sc"
        # a frame-valid SC_BLOCK whose payload is garbage: the store opens
        # fine, replay fails, and the node warns + starts empty
        wal = data_dir / "wal.log"
        wal.write_bytes(wal.read_bytes() + frame_record(SC_BLOCK, b"garbage"))
        with pytest.warns(RuntimeWarning, match="disk recovery failed"):
            node = _recover_latus(harness, sc, data_dir)
        assert node.height == -1  # empty chain, ready for sync_from
        node.close()

    def test_fallback_wipes_the_abandoned_store(self, tmp_path):
        # after the fallback the node writes a new history; it must not land
        # behind the corrupt record, or the next restart fails on it again
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        data_dir = tmp_path / "sc"
        wal = data_dir / "wal.log"
        wal.write_bytes(wal.read_bytes() + frame_record(SC_BLOCK, b"garbage"))
        with pytest.warns(RuntimeWarning, match="disk recovery failed"):
            node = _recover_latus(harness, sc, data_dir)
        node.bootstrap_from(sc.node.blocks[:2])
        node.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = _recover_latus(harness, sc, data_dir)
        assert again.height == 1
        assert again.tip_hash == sc.node.blocks[1].hash
        again.close()

    def test_corrupt_snapshot_falls_back_with_warning(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        data_dir = tmp_path / "sc"
        for name in os.listdir(data_dir):
            if name.startswith("snapshot-"):
                path = data_dir / name
                path.write_bytes(b"\x00" * path.stat().st_size)
        probe = FileStore(data_dir, read_only=True)
        with pytest.raises(StorageError, match="corrupt snapshot"):
            probe.latest_snapshot()
        probe.close()
        with pytest.warns(RuntimeWarning, match="disk recovery failed"):
            node = _recover_latus(harness, sc, data_dir)
        assert node.height == -1
        node.close()


class KindRecordingStore(MemoryStore):
    """A :class:`MemoryStore` that remembers the kind of every record."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[int] = []

    def stage(self, kind: int, payload: bytes) -> None:
        self.kinds.append(kind)
        super().stage(kind, payload)


class TestOneRecordPerBlock:
    def test_replay_reaches_the_live_state_from_block_records_alone(self):
        """A funded epoch whose WAL tail holds all four transaction kinds:
        every record is a block, a wallet transaction or a certificate, and
        a mid-epoch crash replays back to the same tree, touched set, BT list
        and digest."""
        store = KindRecordingStore()
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("one-record", epoch_len=6, submit_len=2, store=store)
        harness.forward_transfer(sc, ALICE, 9_000)
        harness.forward_transfer(sc, BOB, 4_000)
        harness.run_epochs(sc, 1)
        bob_coin = harness.wallet(sc, BOB).utxos()[0]
        harness.submit_btr(harness.make_btr(sc, bob_coin, BOB, BOB.address))
        harness.forward_transfer(sc, CAROL, 2_000)
        harness.wallet(sc, ALICE).pay(BOB.address, 1_500)
        harness.mine(1)
        harness.wallet(sc, ALICE).withdraw(ALICE.address, 500)
        harness.mine(1)

        node = sc.node
        assert node.epoch_blocks[-1].mc_refs[-1].mc_height < sc.config.schedule.last_height(1)
        tail = [
            type(tx)
            for kind, payload in store.records()
            if kind == SC_BLOCK
            for tx in wire.decode_sidechain_block(payload).ordered_transitions()
        ]
        assert set(tail) == {
            ForwardTransfersTx,
            PaymentTx,
            BackwardTransferTx,
            BackwardTransferRequestsTx,
        }
        assert set(store.kinds) == {SC_BLOCK, SC_TX, SC_CERT}

        def view():
            mst = node.state.mst
            return (
                node.height,
                node.tip_hash,
                mst.root,
                mst.touched_positions,
                list(node.state.backward_transfers),
                node.state.digest(),
            )

        live = view()
        assert live[3] and live[4]  # the tail touched slots and queued BTs
        node.crash()
        node.restart()
        assert view() == live
        node.close()


class TestInconsistentSnapshot:
    """A snapshot stores the live state next to the blocks and anchors the
    rest is re-derived from; restore refuses one whose parts disagree."""

    @pytest.fixture
    def snapshots(self):
        store = MemoryStore()
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "spliced", epoch_len=4, submit_len=2, store=store
        )
        harness.run_epochs(sc, 1)
        older = store.latest_snapshot()
        harness.forward_transfer(sc, ALICE, 9_000)
        harness.run_epochs(sc, 1)
        newer = store.latest_snapshot()
        sc.node.close()
        return harness, sc, older, newer

    def _restore(self, harness, sc, epoch, sections) -> LatusNode:
        store = MemoryStore()
        store.write_snapshot(epoch, sections)  # no WAL tail
        return LatusNode(
            config=sc.config,
            params=sc.node.params,
            mc_node=harness.mc,
            creator=CREATOR_DURABLE,
            store=store,
        )

    def test_an_older_state_section_is_refused(self, snapshots):
        harness, sc, (_, older), (epoch, sections) = snapshots
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            node = self._restore(harness, sc, epoch, dict(sections))
        blocks = storage_codec.decode_blob_sequence(sections["latus/blocks"])
        assert (node.height, len(node.certificates)) == (len(blocks) - 1, 2)
        node.close()
        assert older["latus/state"] != sections["latus/state"]
        spliced = dict(sections, **{"latus/state": older["latus/state"]})
        with pytest.warns(RuntimeWarning, match="does not match its chain"):
            node = self._restore(harness, sc, epoch, spliced)
        assert node.height == -1
        node.close()

    def test_a_missing_anchor_is_refused(self, snapshots):
        harness, sc, _, (epoch, sections) = snapshots
        anchors = storage_codec.decode_anchors(sections["latus/anchors"])
        del anchors[0]
        spliced = dict(
            sections, **{"latus/anchors": storage_codec.encode_anchors(anchors)}
        )
        with pytest.warns(RuntimeWarning, match="no certificate anchor"):
            node = self._restore(harness, sc, epoch, spliced)
        assert node.height == -1
        node.close()


# ---------------------------------------------------------------------------
# Mainchain node: restart from disk
# ---------------------------------------------------------------------------


def _mc_params():
    return MainchainParams(pow_zero_bits=2, coinbase_maturity=1)


class TestMainchainDiskRecovery:
    def test_kill_and_restart_from_disk(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 20)  # snapshot at 16 + WAL tail
        tip, height = node.chain.tip.hash, node.height
        del node

        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        assert (recovered.height, recovered.chain.tip.hash) == (height, tip)
        # and it keeps mining on the recovered tip, its clock running on
        stamp = recovered.chain.tip.header.timestamp
        mined = recovered.mine_block(MINER.address)
        assert recovered.height == height + 1
        assert mined.header.timestamp == stamp + 1
        recovered.close()

    @pytest.mark.parametrize("policy", ["block", "never"])
    def test_each_recorded_block_is_synced(self, tmp_path, monkeypatch, policy):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc", fsync=policy)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        node.mine_blocks(MINER.address, 5)  # below the 16-block snapshot
        if policy == "block":
            assert len(synced) >= 5  # at least one sync per mined block
        else:
            assert synced == []
        node.close()

    def test_unreplayable_store_falls_back_to_genesis(self, tmp_path):
        def garbage_wal_block(data_dir):
            wal = data_dir / "wal.log"
            wal.write_bytes(wal.read_bytes() + frame_record(MC_BLOCK, b"garbage"))

        def garbage_snapshot_blocks(data_dir):
            store = FileStore(data_dir)
            epoch, sections = store.latest_snapshot()
            sections["mc/blocks"] = storage_codec.encode_blob_sequence([b"garbage"])
            store.write_snapshot(epoch, sections)
            store.close()

        # 3 blocks stay in the WAL; 16 land in the snapshot
        for mined, corrupt in ((3, garbage_wal_block), (16, garbage_snapshot_blocks)):
            data_dir = tmp_path / corrupt.__name__
            node = MainchainNode(_mc_params(), data_dir=data_dir)
            node.mine_blocks(MINER.address, mined)
            node.close()
            corrupt(data_dir)
            with pytest.warns(RuntimeWarning, match="starting from genesis"):
                recovered = MainchainNode(_mc_params(), data_dir=data_dir)
            assert recovered.height == 0
            # the abandoned store was wiped and is durable again
            recovered.mine_blocks(MINER.address, 2)
            recovered.close()
            again = MainchainNode(_mc_params(), data_dir=data_dir)
            assert again.height == 2
            again.close()

    def test_a_fork_off_a_pruned_block_is_an_orphan(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 17)  # snapshot at 16, block 17 in the WAL
        rival = MainchainNode(_mc_params())
        for block in node.chain.active_chain()[1:6]:
            rival.receive_block(block)
        side = rival.mine_block(MINER.address, timestamp=100)  # forks off block 5
        node.receive_block(side)  # a side branch, journaled after the snapshot
        tip = node.chain.tip.hash
        node.close()

        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        # block 5 came back without a state: replay skips the side branch
        assert recovered.chain.tip.hash == tip
        assert side.hash not in recovered.chain
        with pytest.raises(OrphanBlock, match="pruned"):
            recovered.receive_block(side)
        recovered.close()

    def test_restart_onto_an_empty_data_dir_is_durable(self, tmp_path):
        node = MainchainNode(_mc_params())
        node.mine_blocks(MINER.address, 1)
        node.crash()
        node.restart(data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 2)
        node.close()
        reopened = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        assert reopened.height == 2
        reopened.close()

    def test_sidechain_registry_survives_restart(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 2)
        config = latus_sidechain_config(
            "mc-durable", start_block=node.height + 2, epoch_len=4, submit_len=2
        )
        node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_blocks(MINER.address, 3)
        assert config.ledger_id in node.state.cctp.sidechains
        del node

        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        entry = recovered.state.cctp.sidechains[config.ledger_id]
        assert entry.config.ledger_id == config.ledger_id
        recovered.close()

    def test_crashed_node_refuses_chain_apis(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 3)
        node.crash()
        with pytest.raises(NodeCrashed):
            node.mine_block(MINER.address)
        node.restart(data_dir=tmp_path / "mc")
        assert node.height == 3
        node.close()

    def test_restart_without_store_rebuilds_and_resyncs(self, tmp_path):
        peer = MainchainNode(_mc_params())
        peer.mine_blocks(MINER.address, 6)
        node = MainchainNode(_mc_params())
        node.mine_blocks(MINER.address, 2)
        node.crash()
        node.restart()
        assert node.height == 0  # no store: back to genesis
        adopted = node.sync_from(peer)
        assert adopted == peer.height + 1
        assert node.chain.tip.hash == peer.chain.tip.hash

    def test_historical_states_pruned_after_recovery(self, tmp_path):
        from repro.errors import UnknownBlock

        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 20)
        old_hash = node.chain.active_chain()[5].hash
        del node
        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        with pytest.raises(UnknownBlock, match="pruned"):
            recovered.chain.state_at(old_hash)
        recovered.close()


# ---------------------------------------------------------------------------
# Lifecycle parity
# ---------------------------------------------------------------------------


class TestLifecycleParity:
    def test_shared_surface(self):
        for cls in (LatusNode, MainchainNode):
            for name in ("crash", "restart", "sync_from", "close"):
                assert callable(getattr(cls, name)), (cls, name)

    def test_shared_counters(self, tmp_path):
        mc = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        mc.mine_blocks(MINER.address, 2)
        harness, sc = _build_latus_history(tmp_path / "sc")
        crashes = lifecycle.NODE_CRASHES.value
        restarts = lifecycle.NODE_RESTARTS.value
        mc.crash()
        sc.node.crash()
        mc.restart(data_dir=tmp_path / "mc")
        sc.node.restart(data_dir=tmp_path / "sc")
        assert lifecycle.NODE_CRASHES.value == crashes + 2
        assert lifecycle.NODE_RESTARTS.value == restarts + 2
        mc.close()
        sc.node.close()

    def test_store_and_data_dir_are_exclusive(self, tmp_path):
        with pytest.raises(StorageError, match="not both"):
            MainchainNode(_mc_params(), store=MemoryStore(), data_dir=tmp_path / "x")

    def test_recovery_reads_the_store_once(self, tmp_path, monkeypatch):
        mc = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        mc.mine_blocks(MINER.address, 20)  # snapshot at 16 + WAL tail
        mc.close()
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        reads = []
        latest_snapshot = FileStore.latest_snapshot

        def counted(store):
            reads.append(store.data_dir.name)
            return latest_snapshot(store)

        monkeypatch.setattr(FileStore, "latest_snapshot", counted)
        MainchainNode(_mc_params(), data_dir=tmp_path / "mc").close()
        _recover_latus(harness, sc, tmp_path / "sc").close()
        assert reads == ["mc", "sc"]


# ---------------------------------------------------------------------------
# CLI explorer internals
# ---------------------------------------------------------------------------


class TestInspectStore:
    def test_latus_store(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc")
        node = sc.node
        info = inspect_store(FileStore(tmp_path / "sc", read_only=True))
        assert info["kind"] == "latus"
        assert info["height"] == node.height
        assert info["tip_hash"] == node.tip_hash.hex()
        assert info["certificates"] == len(node.certificates)
        assert info["snapshot_epoch"] is not None
        node.close()

    def test_mainchain_store(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 2)
        config = latus_sidechain_config(
            "inspect-mc", start_block=node.height + 2, epoch_len=4, submit_len=2
        )
        node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_blocks(MINER.address, 3)
        height, tip = node.height, node.chain.tip.hash
        node.close()
        info = inspect_store(FileStore(tmp_path / "mc", read_only=True))
        assert info["kind"] == "mainchain"
        assert info["height"] == height
        assert info["tip_hash"] == tip.hex()
        assert info["sidechains"] == 1

    def test_empty_store(self, tmp_path):
        FileStore(tmp_path / "d").close()
        info = inspect_store(FileStore(tmp_path / "d", read_only=True))
        assert info["kind"] == "empty"


# ---------------------------------------------------------------------------
# Chaos: one node recovers from disk while another catches up from peers
# ---------------------------------------------------------------------------


class TestChaosDiskRecovery:
    @staticmethod
    def run(plan_for, data_dir):
        """node-0 (on a ``FileStore``) and node-1 (on none) crash before
        round 3 and restart before round 5."""
        both = ["node-0", "node-1"]
        stores = {"node-0": FileStore(data_dir)}
        return chaos_run(plan_for, 8, {3: both}, {5: both}, seed="chaos-store", stores=stores)

    def test_mixed_recovery_round(self, tmp_path):
        report = self.run(lambda sc, now: FaultPlan(seed=b"disk-chaos"), tmp_path / "node-0")
        assert report.crashes == 2
        # node-0 came back from its own store, node-1 needed a peer: it
        # fetched the blocks it missed, or converge resynced it
        assert report.disk_recoveries >= 1
        assert report.fetches + report.resyncs >= 1

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(16))
    def test_mixed_recovery_sweep(self, seed, tmp_path):
        """Late, doubled and reordered gossip, and node-1 partitioned away:
        node-0 still recovers from disk, and a rerun repeats the run."""

        def plan_for(sc, now):
            return FaultPlan(
                seed=b"disk-chaos/%d" % seed,
                duplicate_rate=0.1,
                reorder_rate=0.2,
                spike_rate=0.1,
                partitions=(partition([(sc.name, "node-0"), ("node-1",)], now + 1.0, now + 4.0),),
            )

        first = self.run(plan_for, tmp_path / "first")
        assert first.crashes == 2
        assert first.disk_recoveries >= 1
        assert first.fetches + first.resyncs >= 1
        again = self.run(plan_for, tmp_path / "again")
        assert (again.schedule, again.final) == (first.schedule, first.final)


PAGED_KWARGS = {"paged_mst": True, "mst_page_size": 64, "mst_cache_pages": 4}


class TestPagedDiskRecovery:
    """PR 9: the kill-mid-epoch story with the paged MST node store.

    The cache is deliberately tiny (64-node pages, 4 resident) so the
    history build spills pages to ``pages.seg`` mid-epoch and recovery has
    to page state back in lazily.
    """

    def test_paged_kill_mid_epoch_recovers_identical_digest(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        expected = (
            sc.node.height,
            sc.node.tip_hash,
            sc.node.state.digest(),
            len(sc.node.certificates),
            sc.node.epoch_id,
        )
        sc.node.close()

        from repro.storage import PAGE_SEGMENT_NAME

        assert (tmp_path / "sc" / PAGE_SEGMENT_NAME).stat().st_size > 0

        recovered = _recover_latus(harness, sc, tmp_path / "sc", **PAGED_KWARGS)
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
            len(recovered.certificates),
            recovered.epoch_id,
        ) == expected
        recovered.close()

    def test_paged_snapshot_recovers_on_unpaged_node(self, tmp_path):
        # config drift: the snapshot was written by a paged node, but the
        # replacement runs without paged_mst — recovery rehouses the state
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        expected = (sc.node.height, sc.node.tip_hash, sc.node.state.digest())
        sc.node.close()
        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
        ) == expected
        recovered.close()

    def test_unpaged_snapshot_recovers_on_paged_node(self, tmp_path):
        # the reverse drift: dict-backed history, paged replacement
        harness, sc = _build_latus_history(tmp_path / "sc")
        expected = (sc.node.height, sc.node.tip_hash, sc.node.state.digest())
        sc.node.close()
        recovered = _recover_latus(harness, sc, tmp_path / "sc", **PAGED_KWARGS)
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
        ) == expected
        recovered.close()

    def test_paged_inspect_reports_page_segment(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        sc.node.close()
        probe = FileStore(tmp_path / "sc", read_only=True)
        info = inspect_store(probe)
        probe.close()
        pages = info["page_store"]
        assert pages["bytes"] > 0
        assert pages["page_records"] >= pages["distinct_pages"] > 0
        assert pages["live_pages"] > 0
        assert pages["page_size"] == 64
        assert pages["occupied_leaves"] == sc.node.state.mst.occupied_count
