"""A minimal transaction mempool with per-sidechain indexing.

Keeps submission order (the mainchain's first-seen tie-breaking for equal
quality certificates relies on it), rejects duplicate ids, and drops
transactions that made it into a connected block.

Beyond the FIFO queue, the pool maintains secondary indexes keyed by
ledger_id — one for all transactions touching a sidechain, one for its
pending withdrawal certificates — so block-template assembly and sidechain
nodes can query one sidechain's backlog without scanning the (potentially
thousands-of-sidechains-wide) global queue.  Every transaction records the
index buckets it occupies at submission time, which makes removal a
constant number of dict operations and :meth:`remove_confirmed` a single
pass over the confirmed transactions.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from repro import observability
from repro.errors import ValidationError
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    Transaction,
)

_REGISTRY = observability.registry()
_SUBMITTED = _REGISTRY.counter(
    "repro_mainchain_mempool_submitted_total",
    "transactions accepted into a mempool",
).labels()
_REJECTED = _REGISTRY.counter(
    "repro_mainchain_mempool_rejected_total",
    "mempool submissions rejected (duplicate txid)",
).labels()
_SIZE = _REGISTRY.gauge(
    "repro_mainchain_mempool_size",
    "pending transactions in the most recently mutated mempool",
).labels()


def _ledger_ids(tx: Transaction) -> tuple[bytes, ...]:
    """The sidechains a transaction touches (empty for pure coin moves)."""
    if isinstance(tx, CertificateTx):
        return (tx.wcert.ledger_id,)
    if isinstance(tx, SidechainDeclarationTx):
        return (tx.config.ledger_id,)
    if isinstance(tx, CswTx):
        return (tx.csw.ledger_id,)
    if isinstance(tx, BtrTx):
        return tuple({req.ledger_id: None for req in tx.requests})
    if isinstance(tx, CoinTransaction):
        return tuple({ft.ledger_id: None for ft in tx.forward_transfers})
    return ()


class Mempool:
    """FIFO pool of pending transactions keyed by txid."""

    def __init__(self) -> None:
        self._txs: dict[bytes, Transaction] = {}
        # ledger_id -> insertion-ordered set (dict keys) of pending txids
        self._by_ledger: dict[bytes, dict[bytes, None]] = {}
        # ledger_id -> insertion-ordered set of pending certificate txids
        self._certs_by_ledger: dict[bytes, dict[bytes, None]] = {}
        # txid -> the ledger buckets it occupies (written once at submit,
        # read once at removal — no per-removal rescan of the transaction)
        self._meta: dict[bytes, tuple[bytes, ...]] = {}

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._txs

    def submit(self, tx: Transaction) -> None:
        """Queue a transaction; duplicates are rejected."""
        txid = tx.txid
        if txid in self._txs:
            _REJECTED.inc()
            raise ValidationError("transaction already in the mempool")
        self._txs[txid] = tx
        ledgers = _ledger_ids(tx)
        if ledgers:
            self._meta[txid] = ledgers
            for ledger_id in ledgers:
                self._by_ledger.setdefault(ledger_id, {})[txid] = None
            if isinstance(tx, CertificateTx):
                self._certs_by_ledger.setdefault(tx.wcert.ledger_id, {})[
                    txid
                ] = None
        _SUBMITTED.inc()
        _SIZE.set(len(self._txs))

    def take(self, limit: int) -> list[Transaction]:
        """The first ``limit`` pending transactions (not removed)."""
        return list(islice(self._txs.values(), limit))

    def pending_for(self, ledger_id: bytes) -> list[Transaction]:
        """Pending transactions touching one sidechain, submission order.

        Index lookup — cost is proportional to that sidechain's backlog,
        not the whole pool.
        """
        bucket = self._by_ledger.get(ledger_id)
        if not bucket:
            return []
        return [self._txs[txid] for txid in bucket]

    def certificates_for(self, ledger_id: bytes) -> list[Transaction]:
        """Pending certificate transactions for one sidechain, in order."""
        bucket = self._certs_by_ledger.get(ledger_id)
        if not bucket:
            return []
        return [self._txs[txid] for txid in bucket]

    def remove(self, txid: bytes) -> None:
        """Drop a transaction if present — O(1) including index upkeep."""
        if self._txs.pop(txid, None) is None:
            return
        for ledger_id in self._meta.pop(txid, ()):
            bucket = self._by_ledger.get(ledger_id)
            if bucket is not None:
                bucket.pop(txid, None)
                if not bucket:
                    del self._by_ledger[ledger_id]
            certs = self._certs_by_ledger.get(ledger_id)
            if certs is not None:
                certs.pop(txid, None)
                if not certs:
                    del self._certs_by_ledger[ledger_id]
        _SIZE.set(len(self._txs))

    def remove_confirmed(self, txs: Iterable[Transaction]) -> None:
        """Drop every transaction that appears in ``txs`` — one pass."""
        for tx in txs:
            self.remove(tx.txid)

    def clear(self) -> None:
        """Drop everything."""
        self._txs.clear()
        self._by_ledger.clear()
        self._certs_by_ledger.clear()
        self._meta.clear()
        _SIZE.set(0)
