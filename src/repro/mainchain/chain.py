"""Chain state, block connection, fork choice and reorgs.

:class:`MainchainState` is the stateful view at one block: the UTXO set,
the CCTP state, pending certificate payouts and the active-chain hash list.
:class:`Blockchain` stores all blocks, keeps a validated state snapshot per
block within the reorg horizon, and performs cumulative-work fork choice — a
heavier fork replaces the active chain, which is exactly the reorg
behaviour the Latus binding (§5.1) must react to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.cctp import CctpState, slot_append, slot_ids
from repro.core.cow import CowDict
from repro.core.transfers import WithdrawalCertificate
from repro.crypto.hashing import NULL_DIGEST, hash_bytes
from repro.errors import (
    DoubleSpend,
    InsufficientFunds,
    OrphanBlock,
    ReorgBelowHorizon,
    UnknownBlock,
    ValidationError,
)
from repro.mainchain.block import Block, BlockHeader
from repro.mainchain.params import MainchainParams
from repro.mainchain.pow import block_work
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    Transaction,
    input_owner_matches,
    verify_input_signatures,
)
from repro.mainchain.utxo import UTXOSet, outpoint_key
from repro.mainchain.validation import (
    validate_block_structure,
    validate_transaction_structure,
)
from repro import observability

_REGISTRY = observability.registry()
_BLOCKS_CONNECTED = _REGISTRY.counter(
    "repro_mainchain_blocks_connected_total",
    "blocks connected to a validated mainchain state",
).labels()
_TXS_CONNECTED = _REGISTRY.counter(
    "repro_mainchain_txs_connected_total",
    "non-coinbase transactions connected inside blocks, by type",
    labelnames=("type",),
)
_BLOCKS_REFUSED = _REGISTRY.counter(
    "repro_mainchain_blocks_refused_total",
    "blocks refused before validation, by reason",
    labelnames=("reason",),
)


_TX_TYPE_LABELS = {
    CoinTransaction: "coin",
    SidechainDeclarationTx: "sc_declaration",
    CertificateTx: "certificate",
    BtrTx: "btr",
    CswTx: "csw",
}


#: Deepest reorg a node follows (MC blocks): a block further below the tip
#: keeps no state and a fork off it is refused (docs/PROTOCOL.md).
REORG_HORIZON = 32

#: Fold a :class:`BlockHashChain` overlay tail back into the shared prefix
#: once it reaches this many hashes (keeps snapshot cost bounded).
_HASH_TAIL_FOLD = 64


class BlockHashChain:
    """Active-chain block hashes with cheap snapshots via structural sharing.

    Linear history is the common case: every connected block appends exactly
    one hash, so all states along one branch share a single backing list and
    each snapshot just remembers its own length.  When an append would land
    on a slot a discarded sibling (e.g. a competing fork's block) already
    claimed, the hash goes to a small private overlay tail instead of
    cloning the whole prefix; the tail is folded back into a fresh shared
    list once it reaches :data:`_HASH_TAIL_FOLD` entries.  Snapshots
    therefore cost O(tail) ≤ 64 hashes instead of O(chain height).
    """

    __slots__ = ("_shared", "_shared_len", "_tail")

    def __init__(self, hashes: "list[bytes] | tuple[bytes, ...]" = ()) -> None:
        self._shared: list[bytes] = list(hashes)
        self._shared_len = len(self._shared)
        self._tail: list[bytes] = []

    def __len__(self) -> int:
        return self._shared_len + len(self._tail)

    def __getitem__(self, index: int) -> bytes:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("block hash index out of range")
        if index < self._shared_len:
            return self._shared[index]
        return self._tail[index - self._shared_len]

    def __iter__(self) -> Iterator[bytes]:
        for i in range(self._shared_len):
            yield self._shared[i]
        yield from self._tail

    def append(self, block_hash: bytes) -> None:
        if not self._tail:
            if len(self._shared) == self._shared_len:
                # free slot: extend the shared list in place
                self._shared.append(block_hash)
                self._shared_len += 1
                return
            if self._shared[self._shared_len] == block_hash:
                # identical replay of a hash a sibling already wrote
                self._shared_len += 1
                return
        self._tail.append(block_hash)

    def copy(self) -> "BlockHashChain":
        """Snapshot; O(tail), with an amortized fold keeping tails short."""
        if len(self._tail) >= _HASH_TAIL_FOLD:
            self._shared = self._shared[: self._shared_len] + self._tail
            self._shared_len = len(self._shared)
            self._tail = []
        clone = BlockHashChain()
        clone._shared = self._shared
        clone._shared_len = self._shared_len
        clone._tail = list(self._tail)
        return clone


class MainchainState:
    """The full validated state after connecting some chain of blocks."""

    def __init__(self, params: MainchainParams) -> None:
        self.params = params
        self.utxos = UTXOSet()
        self.cctp = CctpState()
        self.height = -1
        self.block_hashes = BlockHashChain()
        # cert id -> (ledger id, maturity, addr 0, amount 0, addr 1, ...): payouts
        # not yet matured into the UTXO set, as one flat tuple of atoms, which
        # one collector pass untracks (a nested tuple needs a pass per level)
        self.pending_payouts: CowDict = CowDict()
        # maturity height -> the cert ids whose payouts mature there, as a
        # cons cell (cctp.slot_append: an append is O(1)); an id whose
        # payouts are gone (superseded, or already matured) is skipped
        self._payout_maturities: CowDict = CowDict()

    def copy(self) -> "MainchainState":
        """Copy-on-write snapshot used to validate fork branches.

        Cost is proportional to the state *touched since the last snapshot*
        (dirty UTXO entries, dirty sidechain entries, the block-hash overlay
        tail), not to the total number of registered sidechains, coins or
        nullifiers.
        """
        clone = MainchainState(self.params)
        clone.utxos = self.utxos.copy()
        clone.cctp = self.cctp.copy()
        clone.height = self.height
        clone.block_hashes = self.block_hashes.copy()
        clone.pending_payouts = self.pending_payouts.copy()
        clone._payout_maturities = self._payout_maturities.copy()
        return clone

    def block_hash_at(self, height: int) -> bytes:
        """Active-chain block hash at ``height``."""
        if not 0 <= height <= self.height:
            raise UnknownBlock(f"no active block at height {height}")
        return self.block_hashes[height]

    # -- block connection ---------------------------------------------------------

    def connect_block(self, block: Block) -> None:
        """Validate ``block`` statefully and apply it; raises on any rule break.

        Runs the steps the miner runs too: :meth:`begin_block`, one
        :meth:`connect_transaction` per transaction, :meth:`finish_block`.
        The caller guarantees context-free validity and parent linkage; on
        exception the state must be discarded (a block is not atomic, its
        transactions are).
        """
        if self.block_hashes and block.header.prev_hash != self.block_hashes[-1]:
            raise ValidationError("block does not extend the state tip")
        self.begin_block(block.height)
        fees = 0
        for tx in block.transactions[1:]:
            fees += self.connect_transaction(tx, block.height)
        self.finish_block(block, fees)

    def begin_block(self, height: int) -> None:
        """Open the block at ``height``: fire ceasing deadlines, mature payouts.

        Deadlines fire before any transaction of the block — a certificate
        arriving at the deadline height is already late.
        """
        if height != self.height + 1:
            raise ValidationError(
                f"block height {height} does not extend state height {self.height}"
            )
        self.cctp.advance_to_height(height)
        self._mature_payouts(height)

    def finish_block(self, block: Block, fees: int) -> None:
        """Close the open block: connect its coinbase and seal its hash in."""
        self._connect_coinbase(block.transactions[0], fees, block.height)
        self.height = block.height
        self.block_hashes.append(block.hash)
        self.cctp.seal_block(block.hash)
        _BLOCKS_CONNECTED.inc()

    def connect_transaction(self, tx: Transaction, height: int) -> int:
        """Apply one non-coinbase transaction of the open block; returns its fee.

        A refused transaction raises and leaves the state exactly as it was.
        """
        validate_transaction_structure(tx)
        fee = 0
        if isinstance(tx, CoinTransaction):
            if tx.is_coinbase:
                raise ValidationError("only one coinbase per block")
            fee = self._connect_coin_tx(tx, height)
        elif isinstance(tx, SidechainDeclarationTx):
            self.cctp.register_sidechain(tx.config, height)
        elif isinstance(tx, CertificateTx):
            self._connect_certificate(tx.wcert, height)
        elif isinstance(tx, BtrTx):
            self.cctp.process_btr(*tx.requests, height=height)
        else:  # a CswTx: the structure check refused every other type
            receiver, amount = self.cctp.process_csw(tx.csw, height)
            self.utxos.create(outpoint_key(tx.txid, 0), receiver, amount, height, 0)
        _TXS_CONNECTED.labels(type=_TX_TYPE_LABELS[type(tx)]).inc()
        return fee

    def _mature_payouts(self, height: int) -> None:
        """Credit payouts maturing exactly at ``height``.

        Maturities are indexed by height when the certificate is adopted
        (always in the future at that point), and connected heights are
        consecutive, so one slot lookup replaces the scan over all pending
        certificates.  The slot's cert ids are handled in insertion order;
        ids of superseded certificates are stale and skipped.
        """
        for cert_id in slot_ids(self._payout_maturities.pop(height, None)):
            pending = self.pending_payouts.pop(cert_id, None)
            if pending is None:
                continue  # superseded before maturity
            maturity = pending[1]
            for index, (addr, amount) in enumerate(zip(pending[2::2], pending[3::2])):
                self.utxos.create(outpoint_key(cert_id, index), addr, amount, height, maturity)

    def _connect_coinbase(self, tx: CoinTransaction, fees: int, height: int) -> None:
        allowed = self.params.block_reward + fees
        minted = sum(o.amount for o in tx.outputs)
        if minted > allowed:
            raise ValidationError(
                f"coinbase mints {minted} but only {allowed} is allowed"
            )
        if tx.forward_transfers:
            raise ValidationError("coinbase cannot carry forward transfers")
        self._create_outputs(tx, height, maturity=height + self.params.coinbase_maturity)

    def _connect_coin_tx(self, tx: CoinTransaction, height: int) -> int:
        if not verify_input_signatures(tx):
            raise ValidationError("bad input signature")
        total_in = 0
        for inp in tx.inputs:
            coin = self.utxos.get(inp.outpoint)
            if coin is None:
                raise DoubleSpend("input is unknown or already spent")
            if not coin.spendable_at(height):
                raise ValidationError("input is not yet mature")
            if not input_owner_matches(inp, coin.output.addr):
                raise ValidationError("input pubkey does not own the spent output")
            total_in += coin.output.amount
        if total_in < tx.output_total:
            raise InsufficientFunds(
                f"inputs {total_in} < outputs {tx.output_total}"
            )
        # Forward transfers are validated by the CCTP (active target, amount).
        if tx.forward_transfers:
            self.cctp.process_forward_transfer(*tx.forward_transfers, height=height)
        for inp in tx.inputs:
            self.utxos.spend(inp.outpoint)
        self._create_outputs(tx, height, maturity=0)
        return total_in - tx.output_total

    def _create_outputs(self, tx: CoinTransaction, height: int, maturity: int) -> None:
        for index, output in enumerate(tx.outputs):
            self.utxos.create(
                outpoint_key(tx.txid, index), output.addr, output.amount, height, maturity
            )

    def _connect_certificate(self, wcert: WithdrawalCertificate, height: int) -> None:
        superseded = self.cctp.process_certificate(wcert, height, self.block_hash_at)
        if superseded is not None:
            self.pending_payouts.pop(superseded.id, None)
        if not wcert.bt_list:
            return
        schedule = self.cctp.entry(wcert.ledger_id).config.schedule
        maturity = schedule.ceasing_height(wcert.epoch_id)
        payouts = [field for bt in wcert.bt_list for field in (bt.receiver_addr, bt.amount)]
        self.pending_payouts[wcert.id] = (wcert.ledger_id, maturity, *payouts)
        slot_append(self._payout_maturities, maturity, wcert.id)


@dataclass
class _BlockRecord:
    block: Block
    cumulative_work: int
    state: MainchainState | None


class Blockchain:
    """Block store (every block, every branch) with work-based fork choice;
    only blocks within :data:`REORG_HORIZON` of the tip keep a state.

    Durability is the owning :class:`~repro.mainchain.node.MainchainNode`'s
    job; a chain it recovers from disk is put back with :meth:`restore`.
    """

    def __init__(self, params: MainchainParams | None = None) -> None:
        self.params = params or MainchainParams()
        self.genesis = _make_genesis(self.params)
        self.restore([self.genesis], MainchainState(self.params))

    # -- queries ------------------------------------------------------------------

    def __contains__(self, block_hash: bytes) -> bool:
        """True when the block is stored (on any branch)."""
        return block_hash in self._records

    @property
    def tip(self) -> Block:
        """The active-chain tip block."""
        return self._records[self._active_tip].block

    @property
    def height(self) -> int:
        """The active-chain height."""
        return self.tip.height

    @property
    def state(self) -> MainchainState:
        """The validated state at the active tip (do not mutate)."""
        return self._records[self._active_tip].state

    def block(self, block_hash: bytes) -> Block:
        """Look up a block by hash."""
        try:
            return self._records[block_hash].block
        except KeyError:
            raise UnknownBlock(f"unknown block {block_hash.hex()[:16]}")

    def block_at_height(self, height: int) -> Block:
        """The active-chain block at ``height``."""
        return self.block(self.state.block_hash_at(height))

    def active_chain(self) -> list[Block]:
        """All active-chain blocks, genesis first."""
        return [self.block(h) for h in self.state.block_hashes]

    def cumulative_work(self, block_hash: bytes) -> int:
        """Total work of the chain ending at ``block_hash``."""
        return self._records[block_hash].cumulative_work

    def next_target_bits(self, parent_hash: bytes) -> int:
        """The required difficulty for a block extending ``parent_hash``.

        With retargeting disabled this is the fixed ``pow_zero_bits``.  With
        retargeting, every ``retarget_interval`` blocks the target moves by
        at most one bit: harder when the last interval's timestamps span
        less than half the intended time, easier (down to 1 bit) when they
        span more than double.
        """
        interval = self.params.retarget_interval
        parent = self._records.get(parent_hash)
        if parent is None:
            raise UnknownBlock(f"unknown parent {parent_hash.hex()[:16]}")
        if interval == 0:
            return self.params.pow_zero_bits
        parent_bits = (
            parent.block.header.target_bits
            if parent.block.height > 0
            else self.params.pow_zero_bits
        )
        next_height = parent.block.height + 1
        if next_height % interval != 0 or next_height < interval:
            return parent_bits
        # walk back `interval` blocks along this branch
        cursor = parent
        for _ in range(interval - 1):
            cursor = self._records[cursor.block.header.prev_hash]
        span = parent.block.header.timestamp - cursor.block.header.timestamp
        expected = self.params.target_block_spacing * (interval - 1)
        if span * 2 < expected:
            return parent_bits + 1
        if span > expected * 2:
            return max(1, parent_bits - 1)
        return parent_bits

    # -- extension ---------------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Validate and store ``block``; returns True when it becomes the tip.

        Raises :class:`OrphanBlock` when the parent is unknown,
        :class:`ReorgBelowHorizon` (counted) when it keeps no state, and
        :class:`ValidationError` (or a CCTP error) when invalid.  Fork choice
        is by cumulative work with first-seen tie breaking.
        """
        if block.hash in self._records:
            return block.hash == self._active_tip
        parent = self._records.get(block.header.prev_hash)
        if parent is None:
            raise OrphanBlock(
                f"parent {block.header.prev_hash.hex()[:16]} is unknown"
            )
        if parent.state is None:
            _BLOCKS_REFUSED.labels(reason="below_horizon").inc()
            raise ReorgBelowHorizon(
                f"state for parent {block.header.prev_hash.hex()[:16]} was pruned"
            )
        if block.height != parent.block.height + 1:
            raise ValidationError("block height does not follow its parent")
        required_bits = self.next_target_bits(block.header.prev_hash)
        if block.header.target_bits != required_bits:
            raise ValidationError(
                f"wrong difficulty: block declares {block.header.target_bits} "
                f"zero bits, chain requires {required_bits}"
            )
        validate_block_structure(block, self.params)

        state = parent.state.copy()
        # raises on stateful invalidity
        state.connect_block(block)
        return self._record(block, parent, state)

    def add_mined_block(self, block: Block, state: MainchainState) -> bool:
        """Store a block this node assembled on ``state``; True if now the tip.

        ``state`` is the parent's state with the block connected through
        ``begin_block`` / ``connect_transaction`` / ``finish_block``, so the
        block is recorded as it is, not connected a second time.
        """
        if state.block_hashes[-1] != block.hash:
            raise ValidationError("state was not connected with this block")
        return self._record(block, self._records[block.header.prev_hash], state)

    def _record(self, block: Block, parent: _BlockRecord, state: MainchainState) -> bool:
        """Store a connected block, run fork choice and apply the horizon."""
        work = parent.cumulative_work + block_work(block.header.target_bits)
        self._store(block, work, state)
        became_tip = work > self._records[self._active_tip].cumulative_work
        if became_tip:
            self._active_tip = block.hash
            self._drop_states_below(block.height - REORG_HORIZON)
        return became_tip

    def _store(self, block: Block, work: int, state: MainchainState) -> None:
        self._records[block.hash] = _BlockRecord(block, work, state)
        heapq.heappush(self._stateful, (block.height, block.hash))

    def _drop_states_below(self, height: int) -> None:
        """Drop the state of every stored block below ``height``, any branch."""
        while self._stateful and self._stateful[0][0] < height:
            self._records[heapq.heappop(self._stateful)[1]].state = None

    def state_at(self, block_hash: bytes) -> MainchainState:
        """The validated state after ``block_hash`` (any branch).

        Returns a defensive copy: callers may mutate the result freely
        without corrupting the branch's recorded state.  A block more than
        :data:`REORG_HORIZON` below the tip, or below a tip :meth:`restore` put
        back, has none: :class:`UnknownBlock`.
        """
        try:
            record = self._records[block_hash]
        except KeyError:
            raise UnknownBlock(f"unknown block {block_hash.hex()[:16]}")
        if record.state is None:
            raise UnknownBlock(f"state for {block_hash.hex()[:16]} was pruned")
        return record.state.copy()

    def restore(self, blocks: Sequence[Block], tip_state: MainchainState) -> None:
        """Replace the chain with a trusted active chain, genesis first.

        The blocks were validated before they were logged (the node walks
        them back from its snapshot's block, so they are hash-linked) and are
        not connected again; only the tip keeps a state, ``tip_state``.
        """
        tip = blocks[-1]
        tip_state.height = tip.height
        tip_state.block_hashes = BlockHashChain([b.hash for b in blocks])
        self._records: dict[bytes, _BlockRecord] = {}
        #: Heap of ``(height, hash)`` of the records that keep a state.
        self._stateful: list[tuple[int, bytes]] = []
        work = 0
        for block in blocks:
            if block.height > 0:
                work += block_work(block.header.target_bits)
            self._store(block, work, tip_state)
        self._drop_states_below(tip.height)
        self._active_tip = tip.hash


def _make_genesis(params: MainchainParams) -> Block:
    header = BlockHeader(
        prev_hash=hash_bytes(params.network_tag, b"zendoo/genesis"),
        height=0,
        merkle_root=NULL_DIGEST,
        sc_txs_commitment=NULL_DIGEST,
        timestamp=0,
        target_bits=params.pow_zero_bits,
        nonce=0,
    )
    return Block(header=header, transactions=())
