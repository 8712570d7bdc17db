"""A mainchain full node: chain + mempool + block template miner.

This is the top-level mainchain API used by examples and by the Latus
sidechain nodes observing the mainchain.  Mining connects the mempool's
candidates one by one onto a copy of the tip state, with the same
per-transaction code peers run, dropping each one that raises rather than
letting it poison the block; it then computes the sidechain-transactions
commitment, grinds the proof of work and records the block with the state
it was assembled on, so nothing is connected twice.

With a store attached the node logs one ``MC_BLOCK`` record per newly
recorded block, on any branch.  Whenever the tip lands on a multiple of
:data:`SNAPSHOT_INTERVAL` it snapshots the state of the active block
:data:`~repro.mainchain.chain.REORG_HORIZON` below the tip, and that
block's hash.
"""

from __future__ import annotations

from repro import observability
from repro.errors import ReorgBelowHorizon, StorageError, ValidationError, ZendooError
from repro.lifecycle import NodeLifecycle
from repro.mainchain.block import Block, BlockHeader, transactions_merkle_root
from repro.mainchain.chain import REORG_HORIZON, Blockchain, MainchainState
from repro.mainchain.mempool import Mempool
from repro.mainchain.params import MainchainParams
from repro.mainchain.pow import mine_header
from repro.mainchain.transaction import CertificateTx, Transaction, make_coinbase
from repro.mainchain.validation import compute_sc_txs_commitment

_TEMPLATE_DROPS = observability.registry().counter(
    "repro_mainchain_template_drops_total",
    "mempool transactions dropped from a block template, by error class",
    labelnames=("reason",),
)

#: A durable node writes a snapshot whenever its tip reaches a multiple of
#: this height.
SNAPSHOT_INTERVAL = 16


class MainchainNode(NodeLifecycle):
    """A self-contained mainchain node.

    Shares the crash/restart/resync lifecycle with
    :class:`~repro.latus.node.LatusNode` (same method names, same
    ``repro_node_*`` counters).  ``store=`` / ``data_dir=`` attach a durable
    :class:`~repro.storage.StateStore`, and ``restart(data_dir=...)``
    recovers the chain from disk: the chain up to the snapshot's block is
    rebuilt from the logged blocks without re-validation, and every block
    above it goes through the full ``add_block`` validation again, so the
    restarted node keeps a state for each block of the reorg window.
    """

    _SYNC_FAILURES = (ValidationError, ZendooError)
    _SYNC_ERROR = ValidationError

    def __init__(
        self,
        params: MainchainParams | None = None,
        store=None,
        data_dir=None,
    ) -> None:
        self.params = params or MainchainParams()
        self._init_lifecycle(store, data_dir)
        self._recover()

    # -- lifecycle hooks ------------------------------------------------------------

    def _drop_inflight(self) -> None:
        self.mempool.clear()

    def _reset_for_restart(self) -> None:
        self.chain = Blockchain(self.params)
        self.mempool = Mempool()
        self._clock = 0

    def _restore(self, sections, records: list[tuple[int, bytes]]) -> None:
        """Rebuild the chain from the snapshot's block and the whole log.

        The chain up to the snapshot's block is walked back from it through
        the logged blocks to genesis, so hash linkage holds by construction,
        and only that block keeps a state.  Every other logged block then
        goes through :meth:`Blockchain.add_block` in log order, which
        rebuilds a state for each block of the reorg window.  A block is
        skipped only when it forks off a block the restore left without a
        state (:class:`ReorgBelowHorizon`), or descends from such a block;
        any other block that cannot be placed fails the recovery.
        """
        from repro.storage import codec as storage_codec

        blocks = self._logged_blocks(records)
        if sections is not None:
            try:
                state = storage_codec.decode_mainchain_state(sections["mc/state"], self.params)
                cursor = sections["mc/tip"]
            except KeyError as exc:
                raise StorageError(f"snapshot is missing section {exc}")
            logged = {block.hash: block for block in blocks}
            chain = []
            while cursor != self.chain.genesis.hash:
                if cursor not in logged:
                    raise StorageError("the log does not hold the snapshot's chain back to genesis")
                chain.append(logged.pop(cursor))
                cursor = chain[-1].header.prev_hash
            # the CCTP deadlines are advanced block by block from this height on
            if state.cctp._advanced_to != (chain[0].height if chain else -1):
                raise StorageError("snapshot state was not advanced to its tip")
            self.chain.restore([self.chain.genesis, *reversed(chain)], state)
        skipped: set[bytes] = set()
        for block in blocks:
            if block.header.prev_hash not in skipped:
                try:
                    self.chain.add_block(block)
                    continue
                except ReorgBelowHorizon:
                    pass
            # a side branch below the snapshot's block: the active chain
            # never needs it
            skipped.add(block.hash)
        self._clock = max(self._clock, self.chain.tip.header.timestamp)

    @staticmethod
    def _logged_blocks(records: list[tuple[int, bytes]]) -> list[Block]:
        from repro import wire
        from repro.storage import MC_BLOCK

        if any(kind != MC_BLOCK for kind, _ in records):
            raise StorageError("unexpected sidechain record in a mainchain store")
        return [wire.decode_block(payload) for _, payload in records]

    def _write_snapshot(self) -> None:
        """Snapshot the state of the active block :data:`REORG_HORIZON`
        below the tip (genesis on a shorter chain): a restart rebuilds the
        states above it, the whole reorg window."""
        if not self._journaling:
            return
        from repro.storage import codec as storage_codec

        base = self.chain.block_at_height(max(self.chain.height - REORG_HORIZON, 0))
        self._store.write_snapshot(base.height, {
            "mc/state": storage_codec.encode_mainchain_state(self.chain.state_at(base.hash)),
            "mc/tip": base.hash,
        })

    def _history_records(self) -> list[tuple[int, bytes]]:
        from repro.storage import MC_BLOCK

        return [(MC_BLOCK, block.encode()) for block in self.chain.active_chain()[1:]]

    def _journal_block(self, block: Block) -> None:
        """Log a newly recorded block; snapshot on an interval tip."""
        if not self._journaling:
            return
        from repro.storage import MC_BLOCK

        self._store.stage(MC_BLOCK, block.encode())
        self._store.commit()  # one sync per recorded block
        if self.chain.tip.hash == block.hash and block.height % SNAPSHOT_INTERVAL == 0:
            self._write_snapshot()

    def _adopt_peer_chain(self, peer: "MainchainNode") -> None:
        chain = Blockchain(self.params)
        for block in peer.chain.active_chain()[1:]:
            chain.add_block(block)
        self.chain = chain
        self._clock = max(self._clock, chain.tip.header.timestamp)
        self._rewrite_store()
        self._write_snapshot()

    def _chain_length(self) -> int:
        return self.chain.height + 1

    # -- convenience accessors ------------------------------------------------------

    @property
    def height(self) -> int:
        """Active-chain height."""
        return self.chain.height

    @property
    def state(self) -> MainchainState:
        """Validated state at the tip (read-only)."""
        return self.chain.state

    def submit_transaction(self, tx: Transaction) -> None:
        """Queue a transaction for mining."""
        self._require_running()
        self.mempool.submit(tx)

    # -- mining -----------------------------------------------------------------------

    def mine_block(self, miner_addr: bytes, timestamp: int | None = None) -> Block:
        """Assemble, mine and record the next block; returns it.

        Mempool transactions that fail validation are dropped from the
        template (and from the mempool), counted by error class.
        ``timestamp`` overrides the node's internal clock (used by
        retargeting tests to simulate fast/slow hash rates).
        """
        self._require_running()
        parent = self.chain.tip
        height = parent.height + 1
        state = self.chain.state.copy()
        state.begin_block(height)
        selected, fees = self._connect_candidates(state, height)
        coinbase = make_coinbase(miner_addr, self.params.block_reward + fees, height)
        transactions = (coinbase, *selected)
        self._clock = timestamp if timestamp is not None else self._clock + 1
        header = BlockHeader(
            prev_hash=parent.hash,
            height=height,
            merkle_root=transactions_merkle_root(transactions),
            sc_txs_commitment=compute_sc_txs_commitment(transactions),
            timestamp=self._clock,
            target_bits=self.chain.next_target_bits(parent.hash),
        )
        block = Block(header=mine_header(header), transactions=transactions)
        state.finish_block(block, fees)
        self.chain.add_mined_block(block, state)
        self._journal_block(block)
        self.mempool.remove_confirmed(transactions)
        return block

    def mine_blocks(self, miner_addr: bytes, count: int) -> list[Block]:
        """Mine ``count`` consecutive blocks."""
        return [self.mine_block(miner_addr) for _ in range(count)]

    def _connect_candidates(
        self, state: MainchainState, height: int
    ) -> tuple[list[Transaction], int]:
        """Connect mempool candidates onto the open block; (selected, fees)."""
        candidates = self.mempool.take(self.params.max_block_transactions - 1)
        selected: list[Transaction] = []
        cert_ledgers: set[bytes] = set()
        fees = 0
        for tx in candidates:
            if isinstance(tx, CertificateTx):
                # The commitment tree admits one certificate per sidechain
                # per block; later same-sidechain certificates stay queued
                # for the next template rather than poisoning this one.
                if tx.wcert.ledger_id in cert_ledgers:
                    continue
            try:
                fees += state.connect_transaction(tx, height)
            except ZendooError as exc:
                self.mempool.remove(tx.txid)
                _TEMPLATE_DROPS.labels(reason=type(exc).__name__).inc()
                continue
            selected.append(tx)
            if isinstance(tx, CertificateTx):
                cert_ledgers.add(tx.wcert.ledger_id)
        return selected, fees

    # -- receiving blocks from peers ---------------------------------------------------

    def receive_block(self, block: Block) -> bool:
        """Validate and store a block from the network; True when tip moved."""
        self._require_running()
        known = block.hash in self.chain
        accepted = self.chain.add_block(block)
        if not known:
            self._journal_block(block)
        if accepted:
            self.mempool.remove_confirmed(block.transactions)
        return accepted
