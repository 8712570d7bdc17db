"""Durability tests: the StateStore contract and restart-from-disk nodes.

The scenarios the storage engine exists for: a node is kill -9'd mid-epoch
(the in-memory objects are simply dropped), a fresh node opens the same
data directory and replays snapshot + WAL back to a byte-identical chain
digest — no full peer resync.  Only the tail past the last fsync ever
needs a peer.
"""

import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lifecycle, observability, wire
from repro.crypto.keys import KeyPair
from repro.errors import DecodeError, NodeCrashed, OrphanBlock, StorageError
from repro.latus.node import LatusNode
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    PaymentTx,
)
from repro.mainchain.chain import REORG_HORIZON
from repro.mainchain.node import SNAPSHOT_INTERVAL, MainchainNode
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
    DictNodeStore,
    FileStore,
    MemoryStore,
    PagedNodeStore,
    StateStore,
    format_inspection,
    frame_record,
    inspect_store,
    read_wal,
)
from tests.test_faults import chaos_run
from tests.test_reorg_rollback import node_fingerprint
from tests.test_wire import _mutate

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

    def test_snapshot_keeps_the_log(self, store):
        # the log is the archive: a snapshot covers its records and drops none
        store.append(SC_TX, b"pre")
        store.write_snapshot(3, {"latus/state": b"state-bytes"})
        assert store.records() == [(SC_TX, b"pre")]
        assert store.latest_snapshot() == (3, {"latus/state": b"state-bytes"}, 1)
        store.append(SC_BLOCK, b"tail")
        assert store.records() == [(SC_TX, b"pre"), (SC_BLOCK, b"tail")]
        assert store.latest_snapshot()[2] == 1

    def test_snapshot_commits_staged_records_first(self, store):
        # write_snapshot is a durability point: staged records must not be
        # silently dropped, they are committed before the snapshot covers them
        store.stage(SC_TX, b"staged")
        store.write_snapshot(1, {"s": b""})
        assert store.records() == [(SC_TX, b"staged")]
        assert store.latest_snapshot()[2] == 1

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
        assert reader.latest_snapshot() == (2, {"k": b"v"}, 1)
        assert reader.records() == [(SC_TX, b"visible"), (SC_BLOCK, b"tail")]
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

    def test_a_version_1_store_is_refused(self, tmp_path):
        # version 1 kept the history in its snapshot sections: no reader left
        FileStore(tmp_path / "d").close()
        manifest = tmp_path / "d" / "MANIFEST"
        data = manifest.read_bytes()
        manifest.write_bytes(data[:8] + (1).to_bytes(4, "little") + data[12:])
        with pytest.raises(StorageError, match="unsupported store version 1"):
            FileStore(tmp_path / "d")
        with pytest.raises(StorageError, match="unsupported store version 1"):
            FileStore(tmp_path / "d", read_only=True)

    def test_reopen_sees_the_snapshot_and_what_it_covers(self, tmp_path):
        store = FileStore(tmp_path / "d")
        store.append(SC_TX, b"a")
        store.append(SC_TX, b"b")
        store.close()
        reopened = FileStore(tmp_path / "d")
        reopened.append(SC_BLOCK, b"c")
        reopened.write_snapshot(7, {"k": b"v"})
        reopened.append(SC_BLOCK, b"tail")
        reopened.close()
        reader = FileStore(tmp_path / "d", read_only=True)
        assert reader.latest_snapshot() == (7, {"k": b"v"}, 3)
        assert [payload for _, payload in reader.records()] == [b"a", b"b", b"c", b"tail"]
        reader.close()

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


def _dir_bytes(data_dir) -> dict[str, bytes]:
    """Every file of a data directory, by name: what "left as found" compares."""
    return {path.name: path.read_bytes() for path in sorted(data_dir.iterdir())}


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
        # recovery writes nothing; recovering again from the same log must
        # land on the same chain — replay twice, compare everything
        for name, kwargs in (("flat", {}), ("paged", PAGED_KWARGS)):
            harness, sc = _build_latus_history(tmp_path / name, **kwargs)
            sc.node.close()
            first = _recover_latus(harness, sc, tmp_path / name, **kwargs)
            view = node_fingerprint(first)
            first.close()
            second = _recover_latus(harness, sc, tmp_path / name, **kwargs)
            assert node_fingerprint(second) == view, name
            second.close()

    def test_a_durable_run_writes_no_snapshot(self, tmp_path):
        # each certified epoch's state is in its anchor record: the log
        # alone recovers the node
        for name, kwargs in (("flat", {}), ("paged", PAGED_KWARGS)):
            harness, sc = _build_latus_history(tmp_path / name, **kwargs)
            sc.node.close()
            probe = FileStore(tmp_path / name, read_only=True)
            assert probe.latest_snapshot() is None
            assert SC_CERT in {kind for kind, _ in probe.records()}
            probe.close()
            assert not list((tmp_path / name).glob("snapshot-*"))

    def test_a_snapshot_an_older_build_wrote_is_not_read(self, tmp_path):
        # an older build also wrote the live state as a snapshot section
        # beside a log that holds the whole history: recovery reads the log
        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        view = node_fingerprint(_recover_latus(harness, sc, tmp_path / "sc"))
        store = FileStore(tmp_path / "sc")
        store.write_snapshot(2, {"latus/state": b"an older build's live state"})
        store.close()
        recovered = _recover_latus(harness, sc, tmp_path / "sc")
        assert node_fingerprint(recovered) == view
        recovered.close()

    def test_a_logged_certificate_the_mc_did_not_adopt_is_refused(self, tmp_path):
        # a re-encoded anchor record that decodes, whose certificate is not
        # the one the local MC adopted for its epoch
        import dataclasses

        from repro.latus.node import CertificateAnchor
        from repro.snark.proving import Proof
        from repro.storage.codec import decode_anchor, encode_anchor

        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        adopted = harness.mc.state.cctp.sidechains[sc.config.ledger_id].certificates
        wal = tmp_path / "sc" / "wal.log"
        records, _ = read_wal(wal.read_bytes())
        at = next(i for i, (kind, _) in enumerate(records) if kind == SC_CERT)
        anchor = decode_anchor(records[at][1])
        assert adopted[0].certificate == anchor.certificate
        certificate = dataclasses.replace(
            anchor.certificate, proof=Proof(data=bytes(len(anchor.certificate.proof.data)))
        )
        records[at] = (SC_CERT, encode_anchor(CertificateAnchor(certificate, anchor.state_snapshot)))
        wal.write_bytes(b"".join(frame_record(kind, payload) for kind, payload in records))
        found = _dir_bytes(tmp_path / "sc")
        with pytest.raises(StorageError, match="not the one the MC adopted"):
            _recover_latus(harness, sc, tmp_path / "sc")
        assert _dir_bytes(tmp_path / "sc") == found

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
        # a frame-valid SC_BLOCK whose payload is garbage: the store opens
        # fine, replay fails, and the restart raises with the store as found;
        # the node runs on the empty chain, and a peer brings it back
        harness, sc = _build_latus_history(tmp_path / "sc")
        node, data_dir = sc.node, tmp_path / "sc"
        node.crash()
        shutil.copytree(data_dir, tmp_path / "peer")
        wal = data_dir / "wal.log"
        wal.write_bytes(wal.read_bytes() + frame_record(SC_BLOCK, b"garbage"))
        found = _dir_bytes(data_dir)
        with pytest.raises(StorageError, match="store does not replay"):
            node.restart(data_dir=data_dir)
        assert _dir_bytes(data_dir) == found
        with pytest.raises(StorageError, match="store does not replay"):
            _recover_latus(harness, sc, data_dir)
        assert _dir_bytes(data_dir) == found
        assert node.height == -1 and not node.crashed

        peer = _recover_latus(harness, sc, tmp_path / "peer")
        assert node.sync_from(peer) == len(peer.blocks)
        node.close()
        again = _recover_latus(harness, sc, data_dir)
        assert node_fingerprint(again) == node_fingerprint(peer)
        again.close()
        peer.close()

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
    """A Latus store holds no snapshot: each certified epoch's state is in
    its anchor record.  Recovery refuses an anchor that does not match its
    closing block, or a closed epoch with none, and leaves the store as it
    found it."""

    @pytest.fixture
    def snapshots(self):
        store = MemoryStore()
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "spliced", epoch_len=4, submit_len=2, store=store
        )
        harness.run_epochs(sc, 1)
        harness.forward_transfer(sc, ALICE, 9_000)
        harness.run_epochs(sc, 1)
        assert store.latest_snapshot() is None
        records = store.records()
        sc.node.close()
        return harness, sc, records

    def _restore(self, harness, sc, records) -> LatusNode:
        store = MemoryStore()
        for kind, payload in records:
            store.stage(kind, payload)
        store.commit()
        found = store.records()
        try:
            return LatusNode(
                config=sc.config,
                params=sc.node.params,
                mc_node=harness.mc,
                creator=CREATOR_DURABLE,
                store=store,
            )
        finally:
            assert (store.latest_snapshot(), store.records()) == (None, found)

    def test_an_older_state_section_is_refused(self, snapshots):
        from repro.latus.node import CertificateAnchor
        from repro.storage.codec import decode_anchor, encode_anchor

        harness, sc, records = snapshots
        node = self._restore(harness, sc, records)
        blocks = sum(1 for kind, _ in records if kind == SC_BLOCK)
        assert (node.height, len(node.certificates)) == (blocks - 1, 2)
        node.close()
        first, second = (i for i, (kind, _) in enumerate(records) if kind == SC_CERT)
        older = decode_anchor(records[first][1]).state_snapshot
        anchor = decode_anchor(records[second][1])
        assert older.digest() != anchor.state_snapshot.digest()
        spliced = list(records)
        spliced[second] = (SC_CERT, encode_anchor(CertificateAnchor(anchor.certificate, older)))
        with pytest.raises(StorageError, match="anchor of epoch 1 does not match the chain"):
            self._restore(harness, sc, spliced)

    def test_a_missing_anchor_is_refused(self, snapshots):
        harness, sc, records = snapshots
        first_anchor = next(i for i, (kind, _) in enumerate(records) if kind == SC_CERT)
        spliced = records[:first_anchor] + records[first_anchor + 1 :]
        with pytest.raises(StorageError, match="no certificate anchor"):
            self._restore(harness, sc, spliced)


# ---------------------------------------------------------------------------
# Mainchain node: restart from disk
# ---------------------------------------------------------------------------


def _mc_params():
    return MainchainParams(pow_zero_bits=2, coinbase_maturity=1)


def _copy_store(store: MemoryStore) -> MemoryStore:
    """A second store holding the same log and snapshot."""
    copy = MemoryStore()
    records, snapshot = store.records(), store.latest_snapshot()
    covered = snapshot[2] if snapshot is not None else 0
    for kind, payload in records[:covered]:
        copy.stage(kind, payload)
    if snapshot is not None:
        copy.write_snapshot(snapshot[0], snapshot[1])
    for kind, payload in records[covered:]:
        copy.stage(kind, payload)
    copy.commit()
    return copy


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

    def test_each_recorded_block_is_synced(self, tmp_path, monkeypatch):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        node.mine_blocks(MINER.address, 5)  # below the 16-block snapshot
        assert len(synced) >= 5  # at least one sync per mined block
        node.close()

    def test_unreplayable_store_falls_back_to_genesis(self, tmp_path):
        def garbage_wal_block(data_dir):
            wal = data_dir / "wal.log"
            wal.write_bytes(wal.read_bytes() + frame_record(MC_BLOCK, b"garbage"))

        def unlogged_snapshot_tip(data_dir):
            store = FileStore(data_dir)
            epoch, sections, _ = store.latest_snapshot()
            store.write_snapshot(epoch, dict(sections, **{"mc/tip": bytes(32)}))
            store.close()

        # 3 blocks stay in the log's tail; 16 are covered by the snapshot
        for mined, corrupt, error in (
            (3, garbage_wal_block, "store does not replay"),
            (16, unlogged_snapshot_tip, "back to genesis"),
        ):
            data_dir = tmp_path / corrupt.__name__
            node = MainchainNode(_mc_params(), data_dir=data_dir)
            blocks = node.mine_blocks(MINER.address, mined)
            node.crash()
            corrupt(data_dir)
            found = _dir_bytes(data_dir)
            with pytest.raises(StorageError, match=error):
                MainchainNode(_mc_params(), data_dir=data_dir)
            with pytest.raises(StorageError, match=error):
                node.restart(data_dir=data_dir)
            assert _dir_bytes(data_dir) == found
            assert node.height == 0  # genesis, running, ready for sync_from
            peer = MainchainNode(_mc_params())
            for block in blocks:
                peer.receive_block(block)
            # the resync rewrites the store, which is durable again
            assert node.sync_from(peer) == mined + 1
            node.mine_blocks(MINER.address, 2)
            node.close()
            again = MainchainNode(_mc_params(), data_dir=data_dir)
            assert again.height == mined + 2
            again.close()

    def test_a_restarted_node_keeps_the_whole_reorg_window(self):
        """Restarted from its store at every height across two snapshot
        intervals past the horizon, a node takes each reorg its twin that
        never stopped takes: depth 1 and REORG_HORIZON adopted, one deeper
        refused with the same error."""
        main = MainchainNode(_mc_params()).mine_blocks(
            MINER.address, REORG_HORIZON + 2 * SNAPSHOT_INTERVAL
        )
        store = MemoryStore()
        durable = MainchainNode(_mc_params(), store=store)

        def outcome(node, rival):
            try:
                for block in rival:
                    node.receive_block(block)
            except OrphanBlock as exc:
                return type(exc).__name__
            return node.chain.tip.hash

        for height, block in enumerate(main, 1):
            durable.receive_block(block)
            if height <= REORG_HORIZON:
                continue
            for depth in (1, REORG_HORIZON, REORG_HORIZON + 1):
                builder = MainchainNode(_mc_params())
                for kept in main[: height - depth]:
                    builder.receive_block(kept)
                rival = builder.mine_blocks(ALICE.address, depth + 1)
                twin = MainchainNode(_mc_params())
                for kept in main[:height]:
                    twin.receive_block(kept)
                expected = outcome(twin, rival)
                restarted = MainchainNode(_mc_params(), store=_copy_store(store))
                assert outcome(restarted, rival) == expected, (height, depth)
                refused = "ReorgBelowHorizon" if depth > REORG_HORIZON else rival[-1].hash
                assert expected == refused, (height, depth)

    def test_a_fork_off_a_pruned_block_is_an_orphan(self, tmp_path):
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 17)
        rival = MainchainNode(_mc_params())
        for block in node.chain.active_chain()[1:6]:
            rival.receive_block(block)
        side = rival.mine_block(MINER.address, timestamp=100)  # forks off block 5
        node.receive_block(side)  # a side branch, journaled at height 17
        node.mine_blocks(MINER.address, 2 * SNAPSHOT_INTERVAL + 15)  # snapshot at 64
        tip = node.chain.tip.hash
        node.close()

        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        # the snapshot's block is 32; block 5 came back below it, without a
        # state: replay skips the side branch
        assert recovered.chain.tip.hash == tip
        assert side.hash not in recovered.chain
        with pytest.raises(OrphanBlock, match="pruned"):
            recovered.receive_block(side)
        recovered.close()

    def test_a_branch_off_a_pruned_block_is_skipped_whole(self, tmp_path):
        """A two-block side branch off a block below the snapshot's: the
        first block forks off a block without a state, the second descends
        from a skipped block; replay skips both and reaches the tip."""
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        node.mine_blocks(MINER.address, 17)
        rival = MainchainNode(_mc_params())
        for block in node.chain.active_chain()[1:6]:
            rival.receive_block(block)
        side = [rival.mine_block(MINER.address, timestamp=t) for t in (100, 101)]  # off block 5
        for block in side:
            node.receive_block(block)
        node.mine_blocks(MINER.address, 2 * SNAPSHOT_INTERVAL + 15)  # snapshot at 64
        tip = node.chain.tip.hash
        node.close()
        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        assert recovered.chain.tip.hash == tip
        assert not any(block.hash in recovered.chain for block in side)
        recovered.close()

    @pytest.mark.parametrize("height", [1, 6, 12])
    def test_a_block_whose_parent_nothing_holds_is_refused(self, tmp_path, height):
        """One bit of a logged block's ``prev_hash`` flipped: no block, in the
        chain or the log, is its parent.  Recovery refuses the store and
        leaves every file as found, rather than skipping the block and
        every block after it into a shorter chain."""
        data_dir = tmp_path / "mc"
        node = MainchainNode(_mc_params(), data_dir=data_dir)
        node.mine_blocks(MINER.address, 12)  # no snapshot: every block replays
        # block ``height``'s prev_hash is the one logged copy of its parent's hash
        parent = node.chain.block_at_height(height - 1).hash
        node.close()
        wal = data_dir / "wal.log"
        data = bytearray(wal.read_bytes())
        assert data.count(parent) == 1
        data[data.index(parent)] ^= 0x10
        wal.write_bytes(bytes(data))
        found = _dir_bytes(data_dir)
        with pytest.raises(StorageError, match="unknown"):
            MainchainNode(_mc_params(), data_dir=data_dir)
        assert _dir_bytes(data_dir) == found

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
        node.mine_blocks(MINER.address, REORG_HORIZON + 8)
        chain = node.chain.active_chain()
        del node
        recovered = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        # a state for each block of the reorg window, none below it
        with pytest.raises(UnknownBlock, match="pruned"):
            recovered.chain.state_at(chain[7].hash)
        for block in chain[8:]:
            assert recovered.chain.state_at(block.hash).height == block.height
        recovered.close()


# ---------------------------------------------------------------------------
# Crash points: a copy of the store after every durable write recovers
# ---------------------------------------------------------------------------


class CopyingStore(FileStore):
    """A :class:`FileStore` that copies its data directory after every log
    append and every snapshot write, with the view ``self.view()`` of the
    node at that point: each copy is the disk a kill -9 there leaves."""

    def __init__(self, data_dir, copies) -> None:
        super().__init__(data_dir)
        self.copies = copies
        self.points: list[tuple[pathlib.Path, object]] = []
        self.view = lambda: None

    def _copy(self, what: str) -> None:
        target = self.copies / f"{len(self.points):03d}-{what}"
        shutil.copytree(self.data_dir, target)
        self.points.append((target, self.view()))

    def commit(self) -> None:
        super().commit()
        self._copy("commit")

    def append(self, kind: int, payload: bytes) -> None:
        super().append(kind, payload)
        self._copy("append")

    def write_snapshot(self, epoch: int, sections: dict[str, bytes]) -> None:
        super().write_snapshot(epoch, sections)
        self._copy("snapshot")


def _latus_view(node: LatusNode) -> dict:
    """What a node has committed once a write returns (the MC-following
    queue and the memoised leader schedules are rebuilt by the next sync)."""
    view = node_fingerprint(node)
    del view["seeds"], view["stakes"]
    view["submitted"] = [tx.txid for tx in node.submitted_txs]
    # a block that closes an epoch commits the close: recovery re-derives it
    view["closes"] = bool(node.blocks) and node._closes_epoch(node.blocks[-1], node.epoch_id)
    return view


class TestCrashPoints:
    def test_every_latus_write_recovers_what_it_committed(self, tmp_path):
        store = CopyingStore(tmp_path / "sc", tmp_path / "copies")
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "durable", epoch_len=4, submit_len=2, store=store, **PAGED_KWARGS
        )
        store.view = lambda: _latus_view(sc.node)
        harness.forward_transfer(sc, ALICE, 9_000)
        harness.mine(2)
        harness.wallet(sc, ALICE).pay(BOB.address, 1_500)
        harness.run_epochs(sc, 2)
        harness.wallet(sc, BOB).pay(ALICE.address, 500)
        harness.mine(2)
        sc.node.close()
        # a Latus node writes no snapshot: every copy is after a log write
        kinds = {path.name.split("-")[1] for path, _ in store.points}
        assert kinds == {"commit", "append"}
        for index, (copy, view) in enumerate(store.points):
            closes = view["closes"]
            if closes:
                # the epoch close that follows the block's commit
                view = store.points[index + 1][1]
            for _ in range(2):
                recovered = _recover_latus(harness, sc, copy, **PAGED_KWARGS)
                assert _latus_view(recovered) == view, copy.name
                recovered.close()
                if closes:
                    # the recovery closed the epoch again and logged its
                    # anchor; the second one reads it
                    assert read_wal((copy / "wal.log").read_bytes())[0][-1][0] == SC_CERT

    def test_every_mainchain_write_recovers_what_it_committed(self, tmp_path):
        import hashlib

        from repro.storage.codec import encode_mainchain_state

        store = CopyingStore(tmp_path / "mc", tmp_path / "copies")
        node = MainchainNode(_mc_params(), store=store)

        def view(mc):
            state = hashlib.sha256(encode_mainchain_state(mc.state)).hexdigest()
            return mc.height, mc.chain.tip.hash, state

        store.view = lambda: view(node)
        node.mine_blocks(MINER.address, 2)
        config = latus_sidechain_config(
            "crash-points", start_block=node.height + 2, epoch_len=4, submit_len=2
        )
        node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_blocks(MINER.address, 15)  # a snapshot at 16
        rival = MainchainNode(_mc_params())
        for block in node.chain.active_chain()[1:17]:
            rival.receive_block(block)
        node.receive_block(rival.mine_block(MINER.address, timestamp=100))  # a side branch
        node.mine_blocks(MINER.address, 2)
        node.close()
        assert {path.name.split("-")[1] for path, _ in store.points} == {"commit", "snapshot"}
        for copy, expected in store.points:
            recovered = MainchainNode(_mc_params(), data_dir=copy)
            assert view(recovered) == expected, copy.name
            recovered.close()


# ---------------------------------------------------------------------------
# Decoder fuzz: mutated store files raise typed storage errors only
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def durable_files(tmp_path_factory):
    """The files of a short durable run: a paged Latus node's store and its
    mainchain node's, each with a snapshot and a log tail past it."""
    root = tmp_path_factory.mktemp("durable")
    harness, sc = _build_latus_history(root / "sc", **PAGED_KWARGS)
    sc.node.close()
    mc = MainchainNode(_mc_params(), data_dir=root / "mc")
    mc.mine_blocks(MINER.address, 20)
    mc.close()
    files = {
        name: {path.name: path.read_bytes() for path in (root / name).iterdir()}
        for name in ("sc", "mc")
    }
    return harness, sc, files


def _recover_from(harness, sc, name: str, data_dir):
    if name == "mc":
        return MainchainNode(_mc_params(), data_dir=data_dir)
    return _recover_latus(harness, sc, data_dir, **PAGED_KWARGS)


class TestStorageFuzz:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutated_store_files_raise_only_storage_errors(self, durable_files, data):
        """Opening the store, reading it and recovering a node from it
        either succeed or raise :class:`StorageError` / :class:`DecodeError`."""
        harness, sc, files = durable_files
        name = data.draw(st.sampled_from(sorted(files)))
        target = data.draw(st.sampled_from(sorted(files[name])))
        with tempfile.TemporaryDirectory() as scratch:
            data_dir = pathlib.Path(scratch) / name
            data_dir.mkdir()
            for file, content in files[name].items():
                if file == target:
                    content = _mutate(content, data.draw) if content else b"\xff"
                (data_dir / file).write_bytes(content)
            try:
                store = FileStore(data_dir, read_only=True)
                store.records()
                store.latest_snapshot()
                store.close()
                _recover_from(harness, sc, name, data_dir).close()
            except (StorageError, DecodeError):
                pass


class TestFuzzRegressions:
    """Each store a fuzz run turned up: an untyped error, an allocation or
    a loop sized by a corrupt field.  Each now fails closed."""

    def test_a_logged_slot_past_the_mc_tip(self, tmp_path):
        # was a MemoryError: adopting the block derived a leader schedule
        # for every consensus epoch up to its slot
        import dataclasses

        harness, sc = _build_latus_history(tmp_path / "sc")
        sc.node.close()
        wal = tmp_path / "sc" / "wal.log"
        records, _ = read_wal(wal.read_bytes())
        last = max(i for i, (kind, _) in enumerate(records) if kind == SC_BLOCK)
        block = wire.decode_sidechain_block(records[last][1])
        far = dataclasses.replace(block, slot=1 << 40)
        records[last] = (SC_BLOCK, wire.encode_sidechain_block(far))
        wal.write_bytes(b"".join(frame_record(kind, payload) for kind, payload in records))
        with pytest.raises(StorageError, match="slot past the MC tip"):
            _recover_latus(harness, sc, tmp_path / "sc")

    def test_a_mainchain_state_not_advanced_to_its_tip(self, tmp_path):
        # the next logged block would advance the CCTP deadlines one height
        # at a time from this one
        from repro.storage.codec import decode_mainchain_state, encode_mainchain_state

        blocks = MainchainNode(_mc_params()).mine_blocks(MINER.address, 20)
        node = MainchainNode(_mc_params(), data_dir=tmp_path / "mc")
        for block in blocks[:16]:
            node.receive_block(block)  # a snapshot at 16
        node.close()
        store = FileStore(tmp_path / "mc")
        epoch, sections, _ = store.latest_snapshot()
        state = decode_mainchain_state(sections["mc/state"], _mc_params())
        state.cctp._advanced_to = -(1 << 62)
        store.write_snapshot(epoch, dict(sections, **{"mc/state": encode_mainchain_state(state)}))
        for block in blocks[16:]:
            store.append(MC_BLOCK, block.encode())  # the log tail replays
        store.close()
        with pytest.raises(StorageError, match="not advanced to its tip"):
            MainchainNode(_mc_params(), data_dir=tmp_path / "mc")


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
        # the log alone holds a Latus node
        assert (info["snapshot_epoch"], info["snapshot_covers"]) == (None, None)
        assert "no snapshot" in format_inspection(info)
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


PAGED_KWARGS = {"mst_page_size": 64, "mst_cache_pages": 4}

#: What a durable Latus node leaves in its data directory: its MST pages go
#: to an unnamed scratch file, and it writes no snapshot.
LATUS_FILES = ["MANIFEST", "wal.log"]


def _file_names(data_dir) -> list[str]:
    return sorted(path.name for path in data_dir.iterdir())


class TestPagedDiskRecovery:
    """PR 9: the kill-mid-epoch story with the paged MST node store, which a
    node over a data directory always uses.

    The cache is deliberately tiny (64-node pages, 4 resident) so the
    history build spills pages mid-epoch and recovery pages the anchors'
    states back in lazily.
    """

    def test_paged_kill_mid_epoch_recovers_identical_digest(self, tmp_path):
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        assert isinstance(sc.node.state.mst.node_store, PagedNodeStore)
        assert sc.node.state.mst.node_store.describe()["spilled_pages"] > 0
        expected = (
            sc.node.height,
            sc.node.tip_hash,
            sc.node.state.digest(),
            len(sc.node.certificates),
            sc.node.epoch_id,
        )
        assert _file_names(tmp_path / "sc") == LATUS_FILES
        sc.node.close()

        recovered = _recover_latus(harness, sc, tmp_path / "sc", **PAGED_KWARGS)
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
            len(recovered.certificates),
            recovered.epoch_id,
        ) == expected
        assert _file_names(tmp_path / "sc") == LATUS_FILES
        recovered.close()

    def test_paged_snapshot_recovers_on_unpaged_node(self, tmp_path):
        # the log does not depend on the node store: a paged node's log,
        # handed to an in-memory node, recovers onto the dict store
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        expected = (sc.node.height, sc.node.tip_hash, sc.node.state.digest())
        sc.node.close()
        store = MemoryStore()
        for kind, payload in FileStore(tmp_path / "sc", read_only=True).records():
            store.append(kind, payload)
        recovered = _recover_latus(harness, sc, None, store=store)
        assert isinstance(recovered.state.mst.node_store, DictNodeStore)
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
        ) == expected
        recovered.close()

    def test_unpaged_snapshot_recovers_on_paged_node(self, tmp_path):
        # the reverse: an in-memory node's log, written to a data
        # directory, recovers onto the paged store
        harness, sc = _build_latus_history(None, store=MemoryStore())
        expected = (sc.node.height, sc.node.tip_hash, sc.node.state.digest())
        store = FileStore(tmp_path / "sc")
        for kind, payload in sc.node.store.records():
            store.append(kind, payload)
        store.close()
        sc.node.close()
        recovered = _recover_latus(harness, sc, tmp_path / "sc", **PAGED_KWARGS)
        assert isinstance(recovered.state.mst.node_store, PagedNodeStore)
        assert (
            recovered.height,
            recovered.tip_hash,
            recovered.state.digest(),
        ) == expected
        recovered.close()

    def test_page_segment_does_not_grow_across_restarts(self, tmp_path):
        # the page file has no name and dies with its process: after a
        # durable run and after each restart, the data directory holds the
        # log and its MANIFEST alone, so no page segment grows in it
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        assert _file_names(tmp_path / "sc") == LATUS_FILES
        for restarts in range(1, 4):
            harness.forward_transfer(sc, CAROL, 1_000 * restarts)
            harness.run_epochs(sc, 1)
            sc.node.crash()
            sc.node.restart()
            assert _file_names(tmp_path / "sc") == LATUS_FILES
        sc.node.close()
        assert _file_names(tmp_path / "sc") == LATUS_FILES

    def test_paged_inspect_reads_the_log_alone(self, tmp_path, capsys):
        harness, sc = _build_latus_history(tmp_path / "sc", **PAGED_KWARGS)
        expected = (sc.node.height, f"{sc.node.state.digest():#x}")
        sc.node.close()
        probe = FileStore(tmp_path / "sc", read_only=True)
        info = inspect_store(probe)
        probe.close()
        assert (info["height"], info["tip_digest"]) == expected
        assert "page_store" not in info
        assert info["snapshot_epoch"] is None

        from repro import cli

        assert cli.main(["inspect", "--data-dir", str(tmp_path / "sc")]) == 0
        report = capsys.readouterr().out
        assert "log records:" in report
        assert "page segment" not in report and "snapshot epoch" not in report
