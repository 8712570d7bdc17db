"""Mainchain blocks and headers.

The header carries ``sc_txs_commitment`` (§4.1.3): the root of the Sidechain
Transactions Commitment tree over the block's sidechain-related actions,
which lets sidechain nodes verify their slice of the block without the body
(§5.5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.hashing import hash_bytes
from repro.crypto.merkle import merkle_root
from repro.encoding import Encoder
from repro.mainchain.transaction import Transaction


@dataclass(frozen=True)
class BlockHeader:
    """The mainchain block header (paper §5.5.1's ``MCBlockHeader``)."""

    prev_hash: bytes
    height: int
    merkle_root: bytes
    sc_txs_commitment: bytes
    timestamp: int
    target_bits: int
    nonce: int = 0

    def encode(self) -> bytes:
        """Canonical byte encoding (the proof-of-work preimage)."""
        return (
            Encoder()
            .raw(self.prev_hash)
            .u64(self.height)
            .raw(self.merkle_root)
            .raw(self.sc_txs_commitment)
            .u64(self.timestamp)
            .u32(self.target_bits)
            .u64(self.nonce)
            .done()
        )

    @cached_property
    def hash(self) -> bytes:
        """The block id."""
        return hash_bytes(self.encode(), b"zendoo/mc-block")

    def with_nonce(self, nonce: int) -> "BlockHeader":
        """A copy with a different nonce (used by the miner)."""
        return BlockHeader(
            prev_hash=self.prev_hash,
            height=self.height,
            merkle_root=self.merkle_root,
            sc_txs_commitment=self.sc_txs_commitment,
            timestamp=self.timestamp,
            target_bits=self.target_bits,
            nonce=nonce,
        )


@dataclass(frozen=True)
class Block:
    """A full mainchain block: header plus ordered transactions."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    def encode(self) -> bytes:
        """Canonical wire encoding (header + length-prefixed transactions)."""
        enc = Encoder().var_bytes(self.header.encode())
        enc.sequence(self.transactions, lambda e, tx: e.var_bytes(tx.encode()))
        return enc.done()

    @property
    def hash(self) -> bytes:
        """The block id (the header hash)."""
        return self.header.hash

    @property
    def height(self) -> int:
        """The block height."""
        return self.header.height


def transactions_merkle_root(transactions: tuple[Transaction, ...]) -> bytes:
    """The header's transaction Merkle root."""
    return merkle_root([tx.txid for tx in transactions])
