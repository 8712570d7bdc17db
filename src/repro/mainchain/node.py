"""A mainchain full node: chain + mempool + block template miner.

This is the top-level mainchain API used by examples and by the Latus
sidechain nodes observing the mainchain.  Mining connects the mempool's
candidates one by one onto a copy of the tip state, with the same
per-transaction code peers run, dropping each one that raises rather than
letting it poison the block; it then computes the sidechain-transactions
commitment, grinds the proof of work and records the block with the state
it was assembled on, so nothing is connected twice.
"""

from __future__ import annotations

from repro import observability
from repro.errors import StorageError, ValidationError, ZendooError
from repro.lifecycle import NodeLifecycle
from repro.mainchain.block import Block, BlockHeader, transactions_merkle_root
from repro.mainchain.chain import Blockchain, MainchainState
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


class MainchainNode(NodeLifecycle):
    """A self-contained mainchain node.

    Shares the crash/restart/resync lifecycle with
    :class:`~repro.latus.node.LatusNode` (same method names, same
    ``repro_node_*`` counters).  ``store=`` / ``data_dir=`` attach a durable
    :class:`~repro.storage.StateStore` to the underlying
    :class:`Blockchain`, and ``restart(data_dir=...)`` recovers the chain
    from disk.
    """

    _SYNC_RETRYABLE = (ValidationError, ZendooError)
    _SYNC_ERROR = ValidationError

    def __init__(
        self,
        params: MainchainParams | None = None,
        verify_pool=None,
        store=None,
        data_dir=None,
        fsync: str = "block",
        snapshot_interval: int = 16,
    ) -> None:
        self.params = params or MainchainParams()
        #: Optional :class:`repro.snark.pool.ProverPool` for batched
        #: certificate verification while connecting blocks.
        self.verify_pool = verify_pool
        self.snapshot_interval = snapshot_interval
        if data_dir is not None:
            if store is not None:
                raise StorageError("pass data_dir= or store=, not both")
            from repro.storage import FileStore

            store = FileStore(data_dir, fsync=fsync)
        self._init_lifecycle(store)
        self._reset_for_restart()
        if store is not None and not self._recover_or_start_empty("genesis"):
            # nothing replayable on disk: open a fresh durable chain on it
            if not store.is_empty():
                store.reset()
            self.chain = Blockchain(
                self.params,
                verify_pool=verify_pool,
                store=store,
                snapshot_interval=snapshot_interval,
            )

    # -- lifecycle hooks ------------------------------------------------------------

    def _drop_inflight(self) -> None:
        self.mempool.clear()
        if self._store is not None and not self._store.read_only:
            self._store.discard_staged()

    def _reset_for_restart(self) -> None:
        self.chain = Blockchain(self.params, verify_pool=self.verify_pool)
        self.mempool = Mempool()
        self._clock = 0

    def _recover_from_store(self) -> bool:
        # the Blockchain constructor performs the actual snapshot + WAL
        # replay; StorageError propagates to _recover_or_start_empty
        chain = Blockchain(
            self.params,
            verify_pool=self.verify_pool,
            store=self._store,
            snapshot_interval=self.snapshot_interval,
        )
        if chain.height == 0 and self._store.is_empty():
            return False
        self.chain = chain
        self._clock = max(self._clock, chain.tip.header.timestamp)
        return True

    def _adopt_peer_chain(self, peer: "MainchainNode") -> None:
        chain = Blockchain(self.params, verify_pool=self.verify_pool)
        for block in peer.chain.active_chain()[1:]:
            chain.add_block(block)
        self.chain = chain
        self._clock = max(self._clock, chain.tip.header.timestamp)
        if self._store is not None:
            # re-seed the store with the adopted chain
            self._store.reset()
            chain._store = self._store
            chain._write_snapshot()

    def _chain_length(self) -> int:
        return self.chain.height + 1

    def close(self) -> None:
        """Release the attached store, if any."""
        if self._store is not None:
            self._store.close()

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
        verdicts = state.certificate_verdicts(candidates, height, self.verify_pool)
        selected: list[Transaction] = []
        cert_ledgers: set[bytes] = set()
        fees = 0
        for index, tx in enumerate(candidates):
            if isinstance(tx, CertificateTx):
                # The commitment tree admits one certificate per sidechain
                # per block; later same-sidechain certificates stay queued
                # for the next template rather than poisoning this one.
                if tx.wcert.ledger_id in cert_ledgers:
                    continue
            try:
                fees += state.connect_transaction(tx, height, verdicts.get(index))
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
        accepted = self.chain.add_block(block)
        if accepted:
            self.mempool.remove_confirmed(block.transactions)
        return accepted
