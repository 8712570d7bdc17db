"""The Latus full node (paper §5).

A Latus node directly observes a mainchain node (the parent-child
relationship of §1: "sidechain nodes directly observe the mainchain while
mainchain nodes only observe cryptographically authenticated certificates").
Its responsibilities:

* **Sync** — follow the MC active chain; on an MC reorg, deterministically
  rebuild the sidechain so blocks referencing orphaned MC blocks are
  reverted (§5.1's fork-resolution property);
* **Forge** — one slot per observed MC block; when a controlled key wins
  the slot lottery, forge a block embedding the pending MC references
  (contiguous, cut at withdrawal-epoch boundaries) and pending transactions;
* **Certify** — at the block referencing a withdrawal epoch's last MC
  block, anchor the epoch on the local MC's certificate if it checks against
  the re-executed epoch, else prove the epoch and submit its certificate;
* **Track** — maintain the UTXO index (full outputs, not just MST leaves),
  per-consensus-epoch stake snapshots and the certificate history that
  anchors BTR/CSW proofs.

The slot clock is driven by MC blocks: slot ``k`` corresponds to MC height
``start_block + k``.  This pins the synchronous-slot assumption of
Ouroboros to the observable MC timeline and keeps the whole construction
deterministic, which is also what makes reorg recovery a pure replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observability, wire
from repro.core.bootstrap import SidechainConfig
from repro.core.transfers import WithdrawalCertificate
from repro.crypto.keys import KeyPair, address_of
from repro.errors import (
    CertificateMismatch,
    ConsensusError,
    ForgingError,
    StateTransitionError,
    StorageError,
    UnknownBlock,
    ZendooError,
)
from repro.lifecycle import NodeLifecycle
from repro.latus.block import SidechainBlock, forge_block
from repro.latus.consensus.ouroboros import (
    LeaderSchedule,
    genesis_seed,
    next_epoch_seed,
)
from repro.latus.consensus.stake import StakeDistribution
from repro.latus.mc_ref import build_mc_ref, verify_mc_ref
from repro.latus.mst_delta import MstDelta
from repro.latus.params import LatusParams
from repro.latus.proofs import EpochProver
from repro.latus.state import LatusState
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    LatusTransaction,
    index_transition,
)
from repro.latus.utxo import Utxo, address_to_field
from repro.latus.wcert import (
    WCertWitness,
    WithdrawalCertificateBuilder,
    check_certificate,
    draft_certificate,
)
from repro.snark.recursive import CompositionStats
from repro.mainchain.block import Block as MainchainBlock
from repro.mainchain.node import MainchainNode
from repro.mainchain.transaction import CertificateTx
from repro.storage import (
    SC_BLOCK,
    SC_CERT,
    SC_LEAF_BATCH,
    SC_TX,
    FileStore,
    StateStore,
    decode_leaf_batch,
    encode_leaf_batch,
)
from repro.storage import codec as storage_codec
from repro.storage.pages import (
    DEFAULT_CACHE_PAGES,
    DEFAULT_PAGE_SIZE,
    PAGE_SEGMENT_NAME,
    FilePageBacking,
    MemoryPageBacking,
    PagedNodeStore,
)

_REGISTRY = observability.registry()
_BLOCKS_FORGED = _REGISTRY.counter(
    "repro_latus_blocks_forged_total",
    "sidechain blocks forged locally",
).labels()
_BLOCKS_RECEIVED = _REGISTRY.counter(
    "repro_latus_blocks_received_total",
    "foreign sidechain blocks validated and applied",
).labels()
_BLOCKS_REFUSED = _REGISTRY.counter(
    "repro_latus_blocks_refused_total",
    "foreign sidechain blocks refused, by the exception class of the refusal",
    labelnames=("reason",),
)
_CERTIFICATES_BUILT = _REGISTRY.counter(
    "repro_latus_certificates_built_total",
    "withdrawal certificates built at epoch close",
).labels()
_CERTIFICATES_CHECKED = _REGISTRY.counter(
    "repro_latus_certificates_checked_total",
    "mainchain certificates that checked against the closed epoch and anchor it",
).labels()
_CERTIFICATES_REFUSED = _REGISTRY.counter(
    "repro_latus_certificates_refused_total",
    "mainchain certificates refused at epoch close, by the first differing field",
    labelnames=("reason",),
)
# Node lifecycle counters (repro_node_crashes_total and friends) live in
# repro.lifecycle and are shared with MainchainNode.


@dataclass(frozen=True)
class CertificateAnchor:
    """Where a submitted certificate landed — the BTR/CSW anchor data."""

    certificate: WithdrawalCertificate
    #: Snapshot of the committed state's tree (for membership proofs).
    state_snapshot: LatusState

    @property
    def mst_root(self) -> int:
        """MST root committed by the certificate."""
        return self.state_snapshot.mst_root

    @property
    def mst_delta(self) -> MstDelta:
        """The epoch's touched-slot bit vector, from the committed state."""
        mst = self.state_snapshot.mst
        return MstDelta.from_positions(mst.depth, mst.touched_positions)


class LatusNode(NodeLifecycle):
    """A Latus sidechain full node bound to one mainchain node."""

    _SYNC_FAILURES = (ConsensusError, UnknownBlock)
    _SYNC_ERROR = ConsensusError

    def __init__(
        self,
        config: SidechainConfig,
        params: LatusParams,
        mc_node: MainchainNode,
        creator: KeyPair,
        forger_keys: list[KeyPair] | None = None,
        proving_strategy: str = "per_transaction",
        auto_submit_certificates: bool = True,
        proving_workers: int | None = None,
        store: StateStore | None = None,
        data_dir=None,
        fsync: str = "block",
        paged_mst: bool = False,
        mst_page_size: int = DEFAULT_PAGE_SIZE,
        mst_cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        self.config = config
        self.params = params
        self.mc = mc_node
        self.creator = creator
        self.ledger_id = config.ledger_id
        keys = forger_keys if forger_keys is not None else [creator]
        self.forgers: dict[int, KeyPair] = {
            address_to_field(address_of(k.public)): k for k in keys
        }
        self.prover = EpochProver(proving_strategy, parallel_workers=proving_workers)
        self.cert_builder = WithdrawalCertificateBuilder(self.ledger_id, self.prover)
        self.auto_submit_certificates = auto_submit_certificates
        #: Instrumentation of the most recent epoch proof (pool occupancy,
        #: synthesis/serialization seconds, critical-path depth, ...).
        self.last_epoch_stats: "CompositionStats | None" = None

        #: Every wallet-submitted transaction ever seen (survives rebuilds).
        self.submitted_txs: list[LatusTransaction] = []
        self.anchors: dict[int, CertificateAnchor] = {}
        #: The witness behind the most recent certificate (kept for
        #: diagnostics, tests and benchmarks; never sent to the MC).
        self.last_wcert_witness: WCertWitness | None = None

        self._init_lifecycle(store, data_dir, fsync)
        #: MST storage policy: paged_mst=True bounds resident memory with a
        #: PagedNodeStore (subtree tiles spilling to pages.seg next to the
        #: WAL when a FileStore is attached, to memory otherwise).
        self._paged_mst = paged_mst
        self._mst_page_size = mst_page_size
        self._mst_cache_pages = mst_cache_pages
        self._page_backing = None
        self._recover_or_start_empty()

    # -- chain state (rebuilt wholesale on MC reorgs) ---------------------------------

    def _ensure_page_backing(self):
        """The page backing for the *current* store (re-derived on restart)."""
        if not self._paged_mst:
            return None
        if self._page_backing is None:
            if isinstance(self._store, FileStore):
                self._page_backing = FilePageBacking(self._store.data_dir / PAGE_SEGMENT_NAME)
            else:
                self._page_backing = MemoryPageBacking()
        return self._page_backing

    def _make_node_store(self):
        """A fresh node store honoring the configured MST storage policy."""
        if not self._paged_mst:
            return None
        return PagedNodeStore(
            page_size=self._mst_page_size,
            cache_pages=self._mst_cache_pages,
            backing=self._ensure_page_backing(),
        )

    def _reset_chain_state(self) -> None:
        self.state = LatusState(
            self.params.mst_depth, node_store=self._make_node_store()
        )
        self.utxo_index: dict[int, Utxo] = {}
        self.blocks: list[SidechainBlock] = []
        self.synced_mc: list[tuple[int, bytes]] = []
        self.mc_queue: list[MainchainBlock] = []
        self.included_txids: set[bytes] = set()
        self._epoch_seeds: dict[int, bytes] = {0: genesis_seed(self.ledger_id)}
        self._epoch_stakes: dict[int, StakeDistribution] = {
            0: StakeDistribution.from_mapping({})
        }
        self.anchors = {}
        self._attach_store_hooks()

    def _attach_store_hooks(self) -> None:
        """Wire the MST's write-ahead journal to the attached store."""
        if self._store is not None:
            self.state.mst.attach_journal(self._journal_leaf_batch)

    # -- public API --------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Sidechain chain height (-1 before the first block)."""
        return len(self.blocks) - 1

    @property
    def tip_hash(self) -> bytes:
        """Hash of the sidechain tip (zeros before the first block)."""
        return self.blocks[-1].hash if self.blocks else b"\x00" * 32

    @property
    def epoch_id(self) -> int:
        """The open withdrawal epoch: every earlier one is anchored."""
        return len(self.anchors)

    @property
    def certificates(self) -> list[WithdrawalCertificate]:
        """The anchored certificates, in epoch order."""
        return [anchor.certificate for anchor in self.anchors.values()]

    @property
    def epoch_blocks(self) -> list[SidechainBlock]:
        """The open epoch's blocks: those above the last certificate's quality."""
        if not self.anchors:
            return list(self.blocks)
        return self.blocks[self.anchors[self.epoch_id - 1].certificate.quality + 1 :]

    @property
    def last_referenced_mc_height(self) -> int:
        """The MC height the chain's last reference points at."""
        for block in reversed(self.blocks):
            if block.mc_refs:
                return block.mc_refs[-1].mc_height
        return self.config.start_block - 1

    def epoch_start_state(self) -> LatusState:
        """A copy of the state the open epoch started from.

        §5.2.1: the last anchor's committed state with the transient BT
        list (and the touched set behind ``mst_delta``) cleared; the empty
        state for epoch 0.
        """
        if not self.anchors:
            return LatusState(self.params.mst_depth, node_store=self._make_node_store())
        state = self.anchors[self.epoch_id - 1].state_snapshot.copy()
        state.start_new_epoch()
        return state

    def close(self) -> None:
        """Release prover-side resources and the attached store, if any."""
        self.prover.close()
        super().close()
        if self._page_backing is not None:
            self._page_backing.close()
            self._page_backing = None

    # -- lifecycle hooks (crash/restart/sync_from live in NodeLifecycle) ----------------

    def _drop_inflight(self) -> None:
        # the un-forged MC reference queue is what a real crash loses
        self.mc_queue = []

    def _reset_for_restart(self) -> None:
        # a restarted process starts with a cold decoded-page cache
        if self._page_backing is not None:
            self._page_backing.close()
            self._page_backing = None
        self._reset_chain_state()

    def _adopt_peer_chain(self, peer: "LatusNode") -> None:
        self._reset_chain_state()
        self.bootstrap_from(list(peer.blocks))

    def _chain_length(self) -> int:
        return len(self.blocks)

    # -- durability ---------------------------------------------------------------------

    def _journal_leaf_batch(self, updates: dict[int, int]) -> None:
        """MST write-ahead hook: stage the leaf batch before the tree mutates."""
        if self._journaling:
            self._store.stage(SC_LEAF_BATCH, encode_leaf_batch(updates))

    def _persist_block(self, block: SidechainBlock) -> None:
        """Commit a block record plus its staged leaf batches with one sync."""
        if self._journaling:
            self._store.stage(SC_BLOCK, wire.encode_sidechain_block(block))
            self._store.commit()

    def _state_section(self) -> tuple[str, bytes]:
        """The state snapshot section under the configured storage policy.

        Paged over a file backing: flush the dirty pages into ``pages.seg``,
        fsync it, and persist only the page-table refs — the bytes written
        per epoch are the pages dirtied since the last snapshot, not the
        whole leaf set.  Everything else (dict store, or paged over a
        memory backing whose refs cannot outlive the process) falls back to
        the v1 full-leaf encoding.
        """
        store = self.state.mst.node_store
        if isinstance(store, PagedNodeStore) and isinstance(
            store.backing, FilePageBacking
        ):
            store.flush()
            store.backing.sync()
            return (
                "latus/state_pages",
                storage_codec.encode_latus_state_pages(self.state),
            )
        return ("latus/state", storage_codec.encode_latus_state(self.state))

    def _snapshot_sections(self) -> tuple[int, dict[str, bytes]]:
        # only what the blocks cannot give: the walk re-derives the rest
        state_key, state_payload = self._state_section()
        return self.epoch_id, {
            state_key: state_payload,
            "latus/blocks": storage_codec.encode_blob_sequence(
                [wire.encode_sidechain_block(b) for b in self.blocks]
            ),
            "latus/anchors": storage_codec.encode_anchors(self.anchors),
            "latus/submitted": storage_codec.encode_blob_sequence(
                [tx.encode() for tx in self.submitted_txs]
            ),
        }

    def _reset_durable_state(self) -> None:
        """Wipe and re-seed the store after a reorg invalidated its history."""
        if self._journaling:
            self._wipe_store()
            if self.blocks:
                self._write_snapshot()

    # -- disk recovery ------------------------------------------------------------------

    def _restore_state_section(self, sections: dict[str, bytes]):
        """Decode whichever state section the snapshot carries.

        A paged section restores *lazily*: only the page-table refs are
        read here, and pages fault back in from ``pages.seg`` as the node
        touches state.  A snapshot written under the other storage policy
        is re-housed into the configured one (leaves re-inserted), so
        flipping ``paged_mst`` across restarts is always safe.
        """
        temp_backing = None
        if "latus/state_pages" in sections:
            backing = self._page_backing
            if not isinstance(backing, FilePageBacking):
                if not isinstance(self._store, FileStore):
                    raise StorageError(
                        "paged state snapshot requires a file store to resolve pages"
                    )
                backing = temp_backing = FilePageBacking(self._store.data_dir / PAGE_SEGMENT_NAME)
            state = storage_codec.decode_latus_state_pages(
                sections["latus/state_pages"], backing,
                cache_pages=self._mst_cache_pages,
            )
        else:
            state = storage_codec.decode_latus_state(sections["latus/state"])
        state = self._rehouse_state(state)
        if temp_backing is not None:
            temp_backing.close()
        return state

    def _rehouse_state(self, state: LatusState) -> LatusState:
        """Move a recovered state onto this node's configured node store."""
        paged = isinstance(state.mst.node_store, PagedNodeStore)
        if paged == self._paged_mst:
            return state
        fresh = LatusState(state.mst.depth, node_store=self._make_node_store())
        leaves = dict(state.mst.node_store.leaf_items())
        if leaves:
            fresh.mst._tree.set_leaves(leaves)
        fresh.mst._touched = set(state.mst._touched)
        fresh.backward_transfers = list(state.backward_transfers)
        return fresh

    def _restore_snapshot(self, sections: dict[str, bytes]) -> None:
        """Install a snapshot: the live state as stored, the rest re-derived.

        The blocks and certificate anchors go through the rollback's walk;
        the open epoch's blocks only re-adopt their bookkeeping, since the
        decoded live state already holds their transitions.  Synced MC
        heights come from the blocks' references, so heights queued at crash
        time are processed again by the next sync.  A live state that does
        not match the chain refuses the snapshot.
        """
        try:
            live = self._restore_state_section(sections)
            blocks = [
                wire.decode_sidechain_block(raw)
                for raw in storage_codec.decode_blob_sequence(
                    sections["latus/blocks"]
                )
            ]
            anchors = storage_codec.decode_anchors(sections["latus/anchors"])
            restored_txs = [
                wire.decode_latus_transaction(raw)
                for raw in storage_codec.decode_blob_sequence(
                    sections["latus/submitted"]
                )
            ]
        except KeyError as exc:
            raise StorageError(f"snapshot is missing section {exc}")
        open_blocks = self._rederive_chain(blocks, anchors, rehouse=False)
        for block in open_blocks:
            self._append_block(block)
        # with no open block the walk left the epoch's start state in place
        expected = open_blocks[-1].state_digest if open_blocks else self.state.digest()
        if live.digest() != expected:
            raise StorageError("snapshot state does not match its chain")
        self.state = live
        # merge the durable wallet mempool with anything already in memory
        self._merge_submitted(restored_txs)
        self._attach_store_hooks()

    def _merge_submitted(self, txs: list[LatusTransaction]) -> None:
        """Append recovered wallet transactions not already in memory."""
        known = {tx.txid for tx in self.submitted_txs}
        for tx in txs:
            if tx.txid not in known:
                known.add(tx.txid)
                self.submitted_txs.append(tx)

    def _replay(self, records: list[tuple[int, bytes]]) -> None:
        """Apply the WAL tail as *trusted* replay.

        The blocks came from this node's own validated history, so
        signature, leadership and derivation checks are skipped and epochs
        whose certificate made it to the log are not closed again — which is
        what makes disk recovery strictly faster than a full peer resync.
        Every replayed block's state digest is still checked, so corruption
        cannot slip through; any mismatch raises
        :class:`~repro.errors.StorageError`.
        """
        wallet_txs: list[LatusTransaction] = []
        staged: dict[int, int] = {}
        index = 0
        while index < len(records):
            kind, payload = records[index]
            if kind == SC_TX:
                wallet_txs.append(wire.decode_latus_transaction(payload))
            elif kind == SC_LEAF_BATCH:
                staged.update(decode_leaf_batch(payload))
            elif kind == SC_BLOCK:
                block = wire.decode_sidechain_block(payload)
                self._replay_block(block, staged)
                staged = {}
                if self._closes_epoch(block, self.epoch_id):
                    if index + 1 < len(records) and records[index + 1][0] == SC_CERT:
                        index += 1
                        logged = wire.decode_withdrawal_certificate(records[index][1])
                        self._anchor(logged, self.state.copy())
                    else:
                        # the crash hit between the block commit and the
                        # certificate record: close the epoch again
                        self._close_withdrawal_epoch(block)
            elif kind == SC_CERT:
                pass  # its boundary block is in the snapshot, which anchors it
            else:
                raise StorageError(
                    f"unexpected mainchain record (kind {kind}) in a Latus store"
                )
            index += 1
        self._merge_submitted(wallet_txs)
        # Leaf batches after the last block record belong to a block whose
        # commit marker never hit the disk — the WAL tail the recovery
        # contract allows to drop (the tree never applied them pre-crash
        # only if the process died mid-group; either way the deterministic
        # resync covers the difference).  Silently ignored.
        self._resubmit_reverted_certificates()

    def _replay_block(self, block: SidechainBlock, updates: dict[int, int]) -> None:
        """Apply one previously-validated block from the WAL (trusted path).

        ``updates`` are the leaf batches journaled in the block's commit
        group (possibly none); the digest check refuses anything else.
        """
        if block.parent_hash != self.tip_hash:
            raise StorageError("WAL block does not extend the stored chain")
        if block.height != self.height + 1:
            raise StorageError("WAL block height does not match the stored chain")
        self.state.mst.apply_leaf_batch(updates)
        for tx in block.ordered_transitions():
            self.state.backward_transfers.extend(_transition_bts(tx))
        if self.state.digest() != block.state_digest:
            raise StorageError(
                f"replayed state digest mismatch at height {block.height}"
            )
        self._append_block(block)

    def _anchor(self, certificate: WithdrawalCertificate, snapshot: LatusState) -> None:
        """Anchor the open epoch on ``certificate`` over ``snapshot``, its
        committed state, and open the next epoch on the live state.

        §5.2.1: the BT list (and the touched set behind ``mst_delta``) is
        transient, so the live state clears both.
        """
        self.anchors[self.epoch_id] = CertificateAnchor(
            certificate=certificate, state_snapshot=snapshot
        )
        self.state.start_new_epoch()

    def add_forger(self, keypair: KeyPair) -> None:
        """Register a stakeholder key this node may forge with.

        In a deployment every stakeholder runs their own forging node; the
        single-process harness registers all simulated stakeholders here so
        their slots are not skipped.
        """
        self.forgers[address_to_field(address_of(keypair.public))] = keypair

    def submit_transaction(self, tx: LatusTransaction) -> None:
        """Queue a wallet transaction for inclusion."""
        self._require_running()
        if isinstance(tx, (ForwardTransfersTx, BackwardTransferRequestsTx)):
            raise ConsensusError(
                "FTTx/BTRTx are MC-defined; they cannot be submitted directly"
            )
        self.submitted_txs.append(tx)
        if self._journaling:
            self._store.append(SC_TX, tx.encode())

    def pending_transactions(self) -> list[LatusTransaction]:
        """Submitted transactions not yet included in a block."""
        return [tx for tx in self.submitted_txs if tx.txid not in self.included_txids]

    def sync(self) -> list[SidechainBlock]:
        """Follow the mainchain; returns sidechain blocks forged by this call.

        Detects MC reorgs by comparing synced hashes to the current MC
        active chain; on divergence, only the sidechain blocks referencing
        orphaned MC blocks are reverted (§5.1's fork resolution) — history
        below the fork point is re-derived from the kept blocks so it keeps
        matching certificates the MC already adopted.
        """
        self._require_running()
        divergence = self._find_divergence()
        if divergence is not None:
            self._rollback_before(divergence)
        forged: list[SidechainBlock] = []
        while self.synced_mc_height < self.mc.height:
            forged.extend(self._process_mc_height(self.synced_mc_height + 1))
        return forged

    @property
    def synced_mc_height(self) -> int:
        """Highest MC height this node has processed."""
        if self.synced_mc:
            return self.synced_mc[-1][0]
        return min(self.config.start_block - 1, self.mc.height)

    # -- stake & leadership --------------------------------------------------------------

    def stake_distribution(self) -> StakeDistribution:
        """Current stake: the full UTXO population aggregated by owner."""
        return StakeDistribution.from_utxos(self.utxo_index.values())

    def leader_schedule(self, consensus_epoch: int) -> LeaderSchedule:
        """The leader schedule of a consensus epoch seen so far."""
        if consensus_epoch not in self._epoch_seeds:
            raise ConsensusError(f"consensus epoch {consensus_epoch} not yet started")
        return LeaderSchedule(
            epoch=consensus_epoch,
            seed=self._epoch_seeds[consensus_epoch],
            distribution=self._epoch_stakes[consensus_epoch],
            slots_per_epoch=self.params.slots_per_epoch,
            bootstrap_leader=address_to_field(self.creator.address),
        )

    # -- MC following ---------------------------------------------------------------------

    def _find_divergence(self) -> int | None:
        """First synced MC height no longer on the active chain, if any."""
        if not self.synced_mc:
            return None
        height, stored_hash = self.synced_mc[-1]
        if height <= self.mc.height and self.mc.state.block_hash_at(height) == stored_hash:
            return None  # hash-chain property: the whole prefix matches
        for height, stored_hash in self.synced_mc:
            if height > self.mc.height:
                return height
            if self.mc.state.block_hash_at(height) != stored_hash:
                return height
        return None

    def _rollback_before(self, divergence: int) -> None:
        """Revert every SC block referencing MC heights >= ``divergence``.

        The kept chain is re-derived from the node's own blocks by
        :meth:`_rederive_chain`, the walk a restore takes too; the open
        epoch's kept blocks are then re-executed against their state
        digests.  Nothing is re-proven; the store is re-seeded once, at the
        end.
        """
        kept = []
        for block in self.blocks:
            if block.mc_refs and block.mc_refs[-1].mc_height >= divergence:
                break
            kept.append(block)
        self._replaying = True
        try:
            for block in self._rederive_chain(kept, self.anchors, rehouse=True):
                self.state.apply_block(block.ordered_transitions(), block.state_digest)
                self._append_block(block)
        finally:
            self._replaying = False
        self._attach_store_hooks()
        # the store's history now diverges from the chain: re-seed it with a
        # fresh snapshot of the post-rollback state
        self._reset_durable_state()
        self._resubmit_reverted_certificates()

    def _rederive_chain(
        self, blocks: list[SidechainBlock], anchors: dict, rehouse: bool
    ) -> list[SidechainBlock]:
        """Reset to the empty chain and re-adopt ``blocks`` up to the open epoch.

        Certified epochs (closing block among ``blocks``) replay only their
        bookkeeping and adopt their anchors; the open epoch starts from
        :meth:`epoch_start_state`, re-housed onto this
        node's store when ``rehouse`` (the rollback executes on it).  The
        open epoch's blocks are handed back for the caller to apply.
        """
        closed = certified = 0  # closing blocks; blocks up to the last
        for count, block in enumerate(blocks, 1):
            if self._closes_epoch(block, closed):
                closed, certified = closed + 1, count
        self._reset_chain_state()
        for block in blocks[:certified]:
            self._append_block(block)
        for epoch_id in range(closed):
            if epoch_id not in anchors:
                raise StorageError(f"no certificate anchor for closed epoch {epoch_id}")
            self.anchors[epoch_id] = anchors[epoch_id]
        if closed:
            state = self.epoch_start_state()
            self.state = self._rehouse_state(state) if rehouse else state
        return blocks[certified:]

    def _resubmit_reverted_certificates(self) -> None:
        """Re-queue certificates whose MC adoption was reverted by a reorg.

        The MC mempool drops a certificate once it is mined; if the mining
        block is later orphaned the certificate must be resubmitted — the
        submission-window rules then decide whether it can still make it.
        """
        if not self.auto_submit_certificates:
            return
        entry = self.mc.state.cctp.sidechains.get(self.ledger_id)
        adopted = {r.certificate.id for r in entry.certificates.values()} if entry else set()
        for certificate in self.certificates:
            if certificate.id in adopted:
                continue
            try:
                self.mc.submit_transaction(CertificateTx(wcert=certificate))
            except ZendooError:
                pass  # already queued

    def _process_mc_height(self, height: int) -> list[SidechainBlock]:
        mc_block = self.mc.chain.block_at_height(height)
        self.synced_mc.append((height, mc_block.hash))
        if height < self.config.start_block:
            return []  # before activation there are no slots
        self.mc_queue.append(mc_block)

        slot = height - self.config.start_block
        consensus_epoch = slot // self.params.slots_per_epoch
        self._ensure_consensus_epoch(consensus_epoch)
        schedule = self.leader_schedule(consensus_epoch)
        leader = schedule.leader_of(slot % self.params.slots_per_epoch)

        forger = self.forgers.get(leader)
        if forger is None:
            return []
        return self._forge_pending(forger, slot)

    def _forget_epochs_above(self, consensus_epoch: int) -> None:
        """Drop the memoised seeds and stakes of every later consensus epoch."""
        for later in [e for e in self._epoch_seeds if e > consensus_epoch]:
            del self._epoch_seeds[later], self._epoch_stakes[later]

    def _ensure_consensus_epoch(self, consensus_epoch: int) -> None:
        """Fix the stake snapshot and randomness when a new epoch starts."""
        if consensus_epoch in self._epoch_seeds:
            return
        previous = max(self._epoch_seeds)
        for epoch in range(previous + 1, consensus_epoch + 1):
            self._epoch_seeds[epoch] = next_epoch_seed(
                self._epoch_seeds[epoch - 1], epoch
            )
            self._epoch_stakes[epoch] = self.stake_distribution()

    # -- forging -------------------------------------------------------------------------

    def _forge_pending(self, forger: KeyPair, slot: int) -> list[SidechainBlock]:
        """Forge blocks covering the queued MC references.

        Multiple blocks may be forged at one slot boundary when the queue
        crosses a withdrawal-epoch boundary: the paper restricts a block from
        referencing MC blocks of two different withdrawal epochs (§5.1.1),
        so the queue is split at each epoch-last MC block.
        """
        forged = []
        while self.mc_queue:
            batch = self._take_reference_batch()
            block = self._forge_block(forger, slot, batch)
            forged.append(block)
            if self._closes_epoch(block, self.epoch_id):
                self._close_withdrawal_epoch(block)
        return forged

    def _take_reference_batch(self) -> list[MainchainBlock]:
        """Queued MC blocks up to (and including) the epoch-last block."""
        boundary = self.config.schedule.last_height(self.epoch_id)
        batch = []
        while self.mc_queue:
            batch.append(self.mc_queue.pop(0))
            if batch[-1].height == boundary:
                break
        return batch

    def _forge_block(
        self, forger: KeyPair, slot: int, mc_batch: list[MainchainBlock]
    ) -> SidechainBlock:
        if not mc_batch:
            raise ForgingError("nothing to reference")
        working = self.state
        refs = []
        for mc_block in mc_batch:
            ref = build_mc_ref(mc_block, self.ledger_id, working.mst)
            refs.append(ref)
            for tx in (ref.forward_transfers, ref.bt_requests):
                if tx is not None:
                    working.apply(tx)

        included: list[LatusTransaction] = []
        for tx in self.pending_transactions():
            try:
                working.apply(tx)
            except StateTransitionError:
                continue
            included.append(tx)

        block = forge_block(
            parent_hash=self.tip_hash,
            height=self.height + 1,
            slot=slot,
            forger=forger,
            mc_refs=tuple(refs),
            transactions=tuple(included),
            state_digest=working.digest(),
        )
        self._append_block(block)
        _BLOCKS_FORGED.inc()
        return block

    def _append_block(self, block: SidechainBlock) -> None:
        """Adopt a block whose transitions the state already holds.

        The one adoption step forge, receive, rollback, restore and WAL
        replay all end in: the consensus epoch, the UTXO index, the chain
        and its included txids, the MC heights it references, the MC queue
        and the block record; everything but the state and the certificates.
        """
        consensus_epoch = block.slot // self.params.slots_per_epoch
        self._ensure_consensus_epoch(consensus_epoch)
        # a later epoch's stake snapshot fixed before this block (an MC sync
        # ran ahead of the chain) did not see it: derive it again when asked
        self._forget_epochs_above(consensus_epoch)
        for tx in block.ordered_transitions():
            index_transition(self.utxo_index, tx)
        self.blocks.append(block)
        self.included_txids.update(tx.txid for tx in block.transactions)
        top = self.synced_mc[-1][0] if self.synced_mc else -1
        for ref in block.mc_refs:
            if ref.mc_height > top:
                self.synced_mc.append((ref.mc_height, ref.mc_block_hash))
                top = ref.mc_height
        if block.mc_refs:
            # the queue is in height order: its referenced prefix is done
            while self.mc_queue and self.mc_queue[0].height <= block.mc_refs[-1].mc_height:
                del self.mc_queue[0]
        # the block record is the commit marker for the leaf batches the
        # journal staged while the transitions applied: one sync per block
        self._persist_block(block)

    def _closes_epoch(self, block: SidechainBlock, epoch_id: int) -> bool:
        """True when ``block`` references withdrawal epoch ``epoch_id``'s last MC block."""
        return bool(block.mc_refs) and block.mc_refs[-1].mc_height == (
            self.config.schedule.last_height(epoch_id)
        )

    # -- withdrawal certificates -----------------------------------------------------------

    def _close_withdrawal_epoch(self, last_block: SidechainBlock) -> None:
        """Anchor the epoch on a certificate and reset transient state.

        The anchor is the first certificate on the local MC, adopted before
        pending, that checks against the epoch this node derived; only when
        none does the node prove the epoch, and submit that certificate.
        """
        epoch_id = self.epoch_id
        final_state = self.state.copy()
        touched = self.state.mst.touched_positions
        delta = MstDelta.from_positions(self.params.mst_depth, touched)
        h_prev, h_last = (self._epoch_boundary_hash(e) for e in (epoch_id - 1, epoch_id))
        bt_list = tuple(self.state.backward_transfers)
        draft = draft_certificate(
            self.ledger_id, epoch_id, last_block, bt_list, final_state.mst_root, delta
        )
        certificate = self._checked_certificate(draft, h_prev, h_last)
        if certificate is None:
            blocks = self.epoch_blocks
            start_state = self.epoch_start_state()
            proof_result = self.prover.prove_epoch(
                start_state, [tx for b in blocks for tx in b.ordered_transitions()]
            )
            self.last_epoch_stats = proof_result.stats
            witness = WCertWitness(
                epoch_proof=proof_result.proof,
                start_state_digest=start_state.digest(),
                final_state=final_state,
                bt_list=bt_list,
                last_block=last_block,
                prev_epoch_last_block_hash=h_prev,
                referenced_mc_hashes=tuple(r.mc_block_hash for b in blocks for r in b.mc_refs),
                mst_delta=delta,
                touched_positions=touched,
            )
            certificate = self.cert_builder.build(epoch_id, witness, h_prev, h_last)
            _CERTIFICATES_BUILT.inc()
            self.last_wcert_witness = witness
            if self.auto_submit_certificates:
                try:
                    self.mc.submit_transaction(CertificateTx(wcert=certificate))
                except ZendooError:
                    pass  # the MC refused it (already queued, or not running)
        self._anchor(certificate, final_state)
        if self._journaling:
            # the certificate record lets recovery skip the close; if the
            # crash lands before it, replay closes the epoch again
            self._store.append(SC_CERT, certificate.encode())
        # epoch boundaries are the periodic snapshot points: fold the log in
        self._write_snapshot()

    def _checked_certificate(
        self, draft: WithdrawalCertificate, h_prev: bytes, h_last: bytes
    ) -> WithdrawalCertificate | None:
        """The first certificate on the local MC for the epoch that checks."""
        entry = self.mc.state.cctp.sidechains.get(self.ledger_id)
        record = entry.certificates.get(draft.epoch_id) if entry is not None else None
        pending = [tx.wcert for tx in self.mc.mempool.certificates_for(self.ledger_id)]
        for candidate in ([record.certificate] if record else []) + pending:
            if candidate.epoch_id != draft.epoch_id:
                continue
            try:
                check_certificate(candidate, draft, self.config, h_prev, h_last)
            except CertificateMismatch as exc:
                _CERTIFICATES_REFUSED.labels(reason=exc.reason).inc()
                continue
            _CERTIFICATES_CHECKED.inc()
            return candidate
        return None

    def _epoch_boundary_hash(self, epoch_id: int) -> bytes:
        """Active-chain hash of a withdrawal epoch's last MC block."""
        if epoch_id < 0:
            return b"\x00" * 32
        height = self.config.schedule.last_height(epoch_id)
        return self.mc.state.block_hash_at(height)

    # -- receiving foreign blocks -------------------------------------------------------------

    def bootstrap_from(self, blocks: list[SidechainBlock]) -> None:
        """Bootstrap a fresh node from a peer's block history.

        Every block passes the full :meth:`receive_block` validation
        (leader lottery, reference commitment proofs, state re-execution,
        the epoch-close certificate check),
        so a node that bootstraps successfully ends byte-identical to the
        serving peer — the paper's determinism property, exercised across a
        whole chain.  The node must be freshly constructed (no local blocks)
        and its mainchain view must already cover the referenced heights.
        """
        if self.blocks:
            raise ConsensusError("bootstrap requires a fresh node")
        # record the MC blocks the history will reference so that epoch
        # boundary lookups and reorg detection work afterwards
        for height in range(self.config.start_block, self.mc.height + 1):
            mc_block = self.mc.chain.block_at_height(height)
            self.synced_mc.append((height, mc_block.hash))
            self.mc_queue.append(mc_block)
        for block in blocks:
            self.receive_block(block)

    def receive_block(self, block: SidechainBlock) -> None:
        """Validate and apply a block forged by another node.

        Raises :class:`ConsensusError` (:class:`StateTransitionError` for a
        ⊥ transition) on any rule violation, leaving the node as it was.
        The block must directly extend this node's tip (the harness
        delivers blocks in order).
        """
        self._require_running()
        known_epoch = max(self._epoch_seeds)
        try:
            if block.parent_hash != self.tip_hash:
                raise ConsensusError("broken parent link: block does not extend the local tip")
            if block.height != self.height + 1:
                raise ConsensusError("wrong block height")
            if not block.verify_signature():
                raise ConsensusError("bad forger signature")

            # the slot clock is the MC height (§5.1): a slot neither runs
            # behind its parent's nor ahead of the MC tip, and the block's
            # last reference is its slot's MC block, or the last block of
            # the withdrawal epoch it was cut at (§5.1.1)
            clock = self.config.start_block + block.slot
            if self.blocks and block.slot < self.blocks[-1].slot:
                raise ConsensusError("slot runs behind the parent's")
            if clock > self.mc.height:
                raise ConsensusError("slot is ahead of the MC tip")
            last = block.mc_refs[-1].mc_height if block.mc_refs else None
            cut = self.config.schedule.last_height(self.epoch_id)
            if last != clock and not (last == cut < clock):
                raise ConsensusError("last MC reference is not the slot's MC block")
            if block.mc_refs[0].mc_height <= cut < last:
                raise ConsensusError("MC references cross a withdrawal-epoch boundary")

            consensus_epoch, slot = divmod(block.slot, self.params.slots_per_epoch)
            self._ensure_consensus_epoch(consensus_epoch)
            if not self.leader_schedule(consensus_epoch).is_leader(block.forger_addr, slot):
                raise ConsensusError("forger is not the slot leader")

            expected_height = self.last_referenced_mc_height + 1
            for ref in block.mc_refs:
                if ref.mc_height != expected_height:
                    raise ConsensusError("MC references are not contiguous")
                if ref.mc_block_hash != self.mc.state.block_hash_at(ref.mc_height):
                    raise ConsensusError("reference to a non-active MC block")
                verify_mc_ref(ref, self.ledger_id)
                expected_height += 1

            self.state.apply_block(block.ordered_transitions(), block.state_digest)
        except ZendooError as exc:
            # the state put itself back; its leaf batches must not ride the
            # next commit, and the consensus epochs it opened are forgotten
            self._discard_staged()
            self._forget_epochs_above(known_epoch)
            _BLOCKS_REFUSED.labels(reason=type(exc).__name__).inc()
            raise

        self._append_block(block)
        _BLOCKS_RECEIVED.inc()
        if self._closes_epoch(block, self.epoch_id):
            self._close_withdrawal_epoch(block)


def _transition_bts(tx: LatusTransaction) -> list:
    """Backward transfers one applied transition appends to the state."""
    if isinstance(tx, BackwardTransferTx):
        return list(tx.backward_transfers)
    if isinstance(tx, ForwardTransfersTx):
        return list(tx.rejected)
    if isinstance(tx, BackwardTransferRequestsTx):
        return list(tx.backward_transfers)
    return []
