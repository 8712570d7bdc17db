"""The Sidechain Transactions Commitment tree (paper §4.1.3, Fig. 4/12).

Every mainchain block header carries ``SCTxsCommitment``: the root of a
Merkle tree committing to all sidechain-related actions in the block.  Per
sidechain the subtree is::

    SCXHash = H( TxsHash | WCertHash | ledgerId )
    TxsHash = H( FTHash | BTRHash )
    FTHash  = MerkleRoot(forward transfers to X)
    BTRHash = MerkleRoot(backward transfer requests to X)

and the top-level tree collects the ``SCXHash`` leaves *ordered by ledger
id*, which is what makes compact absence proofs possible: a sidechain that
is not in the block proves so by exhibiting the two adjacent leaves its id
would fall between (§5.5.1's ``proofOfNoData``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.core.transfers import (
    BackwardTransferRequest,
    ForwardTransfer,
    WithdrawalCertificate,
)
from repro.crypto.hashing import NULL_DIGEST, hash_concat
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import MerkleError
from repro import observability

_SC_LEAF_DOMAIN = b"zendoo/sc-leaf"
_TXS_DOMAIN = b"zendoo/sc-txs"

_REGISTRY = observability.registry()
_LEAF_CACHE_EVENTS = _REGISTRY.counter(
    "repro_commitment_leaf_cache_total",
    "per-sidechain commitment-subtree computations, by cache result",
    labelnames=("result",),
)

#: Per-sidechain subtree cache: a digest of one sidechain's block content
#: (ledger id + FT ids + BTR ids + certificate id) maps to the three subtree
#: hashes of its commitment leaf.  This is what makes repeated commitment
#: builds incremental: a block's tree only recomputes the sidechains whose
#: content digest is new, reusing cached ``sc_hash`` leaves for the rest
#: (every peer revalidating the block, reorg replays and re-mined
#: templates hit it).  FIFO-bounded.
_LEAF_CACHE: dict[bytes, tuple[bytes, bytes, bytes]] = {}
_LEAF_CACHE_MAX: int = 8192


def clear_leaf_cache() -> None:
    """Drop all cached per-sidechain subtree hashes."""
    _LEAF_CACHE.clear()


def leaf_cache_size() -> int:
    """Number of cached per-sidechain subtree entries."""
    return len(_LEAF_CACHE)


def _ft_root(fts: tuple[ForwardTransfer, ...]) -> bytes:
    return MerkleTree([ft.id for ft in fts]).root


def _btr_root(btrs: tuple[BackwardTransferRequest, ...]) -> bytes:
    return MerkleTree([btr.id for btr in btrs]).root


def _txs_hash(ft_root: bytes, btr_root: bytes) -> bytes:
    return hash_concat([ft_root, btr_root], _TXS_DOMAIN)


def _sc_hash(ledger_id: bytes, txs_hash: bytes, wcert_hash: bytes) -> bytes:
    return hash_concat([txs_hash, wcert_hash, ledger_id], _SC_LEAF_DOMAIN)


def composite_root(merkle_root: bytes, leaf_count: int) -> bytes:
    """The header's ``SCTxsCommitment``: Merkle root bound with leaf count.

    Binding the count closes a soundness hole in absence proofs: without
    it, a prover could present some leaf as "the last one" and fake the
    absence of any id sorting after it.  An empty block commits to
    ``NULL_DIGEST``.
    """
    if leaf_count == 0:
        return NULL_DIGEST
    return hash_concat(
        [merkle_root, leaf_count.to_bytes(4, "little")], b"zendoo/sc-commit"
    )


@dataclass(frozen=True)
class SidechainCommitment:
    """The per-sidechain subtree of one block's commitment (Fig. 12).

    The subtree hashes are cached on the instance (first access computes),
    and :func:`build_commitment` additionally seeds them from the module's
    per-sidechain subtree cache so re-building a commitment over unchanged
    sidechain content never re-hashes the FT/BTR trees.
    """

    ledger_id: bytes
    forward_transfers: tuple[ForwardTransfer, ...]
    btrs: tuple[BackwardTransferRequest, ...]
    wcert: WithdrawalCertificate | None

    @cached_property
    def ft_root(self) -> bytes:
        """``FTHash``: root over this sidechain's forward transfers."""
        return _ft_root(self.forward_transfers)

    @cached_property
    def btr_root(self) -> bytes:
        """``BTRHash``: root over this sidechain's BTRs."""
        return _btr_root(self.btrs)

    @cached_property
    def txs_hash(self) -> bytes:
        """``TxsHash = H(FTHash | BTRHash)``."""
        return _txs_hash(self.ft_root, self.btr_root)

    @cached_property
    def wcert_hash(self) -> bytes:
        """``WCertHash``: the certificate digest, or NULL when absent."""
        return self.wcert.id if self.wcert is not None else NULL_DIGEST

    @cached_property
    def sc_hash(self) -> bytes:
        """``SCXHash``: the top-tree leaf for this sidechain."""
        return _sc_hash(self.ledger_id, self.txs_hash, self.wcert_hash)

    @cached_property
    def content_key(self) -> bytes:
        """Injective digest of this sidechain's block content.

        Keys the per-sidechain subtree cache: FT/BTR/certificate ids commit
        to their full payloads, and the length prefixes keep the encoding
        unambiguous across the three sections.
        """
        h = hashlib.blake2b(digest_size=32, person=b"zendoo/sc-leaf-k")
        h.update(self.ledger_id)
        h.update(len(self.forward_transfers).to_bytes(4, "little"))
        for ft in self.forward_transfers:
            h.update(ft.id)
        h.update(len(self.btrs).to_bytes(4, "little"))
        for btr in self.btrs:
            h.update(btr.id)
        h.update(self.wcert.id if self.wcert is not None else NULL_DIGEST)
        return h.digest()

    @property
    def is_empty(self) -> bool:
        """True when the block contains nothing for this sidechain."""
        return not self.forward_transfers and not self.btrs and self.wcert is None

    def _seed_from_cache(self) -> "SidechainCommitment":
        """Populate subtree hashes from the module cache (or fill it).

        Returns ``self`` for chaining.
        """
        key = self.content_key
        cached = _LEAF_CACHE.get(key)
        if cached is not None:
            txs_hash, wcert_hash, sc_hash = cached
            self.__dict__["txs_hash"] = txs_hash
            self.__dict__["wcert_hash"] = wcert_hash
            self.__dict__["sc_hash"] = sc_hash
            _LEAF_CACHE_EVENTS.labels(result="hit").inc()
            return self
        _LEAF_CACHE_EVENTS.labels(result="miss").inc()
        if len(_LEAF_CACHE) >= _LEAF_CACHE_MAX:
            _LEAF_CACHE.pop(next(iter(_LEAF_CACHE)))
        _LEAF_CACHE[key] = (self.txs_hash, self.wcert_hash, self.sc_hash)
        return self


@dataclass(frozen=True)
class PresenceProof:
    """``mproof``: the sidechain's subtree root is in the commitment tree.

    Carries the subtree components so a verifier holding the actual FT/BTR/
    WCert payloads can recompute ``SCXHash`` and check completeness.
    """

    ledger_id: bytes
    txs_hash: bytes
    wcert_hash: bytes
    merkle_proof: MerkleProof
    leaf_count: int

    def verify(self, commitment_root: bytes) -> bool:
        """Check the leaf recomputes and opens to ``commitment_root``."""
        leaf = _sc_hash(self.ledger_id, self.txs_hash, self.wcert_hash)
        if self.merkle_proof.leaf != leaf:
            return False
        if not 0 <= self.merkle_proof.index < self.leaf_count:
            return False
        computed = self.merkle_proof.compute_root()
        return composite_root(computed, self.leaf_count) == commitment_root

    def verify_payload(
        self,
        commitment_root: bytes,
        forward_transfers: tuple[ForwardTransfer, ...],
        btrs: tuple[BackwardTransferRequest, ...],
        wcert: WithdrawalCertificate | None,
    ) -> bool:
        """Full check: the claimed payload is *exactly* the committed one."""
        if _txs_hash(_ft_root(forward_transfers), _btr_root(btrs)) != self.txs_hash:
            return False
        expected_wcert = wcert.id if wcert is not None else NULL_DIGEST
        if expected_wcert != self.wcert_hash:
            return False
        return self.verify(commitment_root)


@dataclass(frozen=True)
class _NeighborLeaf:
    """An opened top-tree leaf used inside absence proofs."""

    ledger_id: bytes
    txs_hash: bytes
    wcert_hash: bytes
    merkle_proof: MerkleProof

    def verify(self, commitment_root: bytes, leaf_count: int) -> bool:
        leaf = _sc_hash(self.ledger_id, self.txs_hash, self.wcert_hash)
        if self.merkle_proof.leaf != leaf:
            return False
        if not 0 <= self.merkle_proof.index < leaf_count:
            return False
        computed = self.merkle_proof.compute_root()
        return composite_root(computed, leaf_count) == commitment_root


@dataclass(frozen=True)
class AbsenceProof:
    """``proofOfNoData``: the ledger id is not a leaf of the commitment tree.

    Leaves are sorted by ledger id, so absence is shown by the (up to two)
    neighbors the id would fall between.  ``left``/``right`` are None at the
    corresponding boundary; both are None only for an empty tree.
    """

    ledger_id: bytes
    left: _NeighborLeaf | None
    right: _NeighborLeaf | None
    #: Number of leaves in the committed tree; bound into the root by
    #: :func:`composite_root`, which is what makes boundary cases sound.
    leaf_count: int

    def verify(self, commitment_root: bytes) -> bool:
        """Check neighbor ordering, adjacency, boundaries and openings."""
        if self.left is None and self.right is None:
            return self.leaf_count == 0 and commitment_root == NULL_DIGEST
        if self.left is not None:
            if not self.left.verify(commitment_root, self.leaf_count):
                return False
            if not self.left.ledger_id < self.ledger_id:
                return False
        if self.right is not None:
            if not self.right.verify(commitment_root, self.leaf_count):
                return False
            if not self.ledger_id < self.right.ledger_id:
                return False
        if self.left is not None and self.right is not None:
            if self.right.merkle_proof.index != self.left.merkle_proof.index + 1:
                return False
        elif self.left is None:
            if self.right.merkle_proof.index != 0:
                return False
        else:
            # right is None: the left neighbor must be the LAST leaf, which
            # the count (itself bound into the commitment root) certifies.
            if self.left.merkle_proof.index != self.leaf_count - 1:
                return False
        return True


class SidechainTxCommitmentTree:
    """Builder for one block's full sidechain-transactions commitment."""

    def __init__(self, commitments: list[SidechainCommitment]) -> None:
        nonempty = [c for c in commitments if not c.is_empty]
        ids = [c.ledger_id for c in nonempty]
        if len(set(ids)) != len(ids):
            raise MerkleError("duplicate ledger id in commitment tree")
        self.commitments = sorted(nonempty, key=lambda c: c.ledger_id)
        self._index = {c.ledger_id: i for i, c in enumerate(self.commitments)}
        self._tree = MerkleTree([c.sc_hash for c in self.commitments])

    @property
    def root(self) -> bytes:
        """The ``SCTxsCommitment`` header field (count-bound, see
        :func:`composite_root`)."""
        return composite_root(self._tree.root, self.leaf_count)

    @property
    def leaf_count(self) -> int:
        """Number of sidechains with activity in the block."""
        return len(self.commitments)

    def commitment_for(self, ledger_id: bytes) -> SidechainCommitment | None:
        """The per-sidechain subtree, or None when absent."""
        index = self._index.get(ledger_id)
        return None if index is None else self.commitments[index]

    def prove_presence(self, ledger_id: bytes) -> PresenceProof:
        """Produce the ``mproof`` for a sidechain with activity."""
        index = self._index.get(ledger_id)
        if index is None:
            raise MerkleError("sidechain has no activity in this block")
        commitment = self.commitments[index]
        return PresenceProof(
            ledger_id=ledger_id,
            txs_hash=commitment.txs_hash,
            wcert_hash=commitment.wcert_hash,
            merkle_proof=self._tree.prove(index),
            leaf_count=self.leaf_count,
        )

    def prove_absence(self, ledger_id: bytes) -> AbsenceProof:
        """Produce the ``proofOfNoData`` for a sidechain without activity."""
        if ledger_id in self._index:
            raise MerkleError("sidechain has activity; absence proof impossible")
        ids = [c.ledger_id for c in self.commitments]
        # position where ledger_id would be inserted
        insert_at = 0
        while insert_at < len(ids) and ids[insert_at] < ledger_id:
            insert_at += 1
        left = self._neighbor(insert_at - 1) if insert_at > 0 else None
        right = self._neighbor(insert_at) if insert_at < len(ids) else None
        return AbsenceProof(
            ledger_id=ledger_id, left=left, right=right, leaf_count=self.leaf_count
        )

    def _neighbor(self, index: int) -> _NeighborLeaf:
        commitment = self.commitments[index]
        return _NeighborLeaf(
            ledger_id=commitment.ledger_id,
            txs_hash=commitment.txs_hash,
            wcert_hash=commitment.wcert_hash,
            merkle_proof=self._tree.prove(index),
        )


def build_commitment(
    forward_transfers: list[ForwardTransfer],
    btrs: list[BackwardTransferRequest],
    wcerts: list[WithdrawalCertificate],
) -> SidechainTxCommitmentTree:
    """Group a block's sidechain actions by ledger id and build the tree.

    At most one certificate per sidechain per block is accepted (§4.1.3).
    """
    by_ledger: dict[bytes, dict[str, list]] = {}

    def bucket(ledger_id: bytes) -> dict[str, list]:
        return by_ledger.setdefault(ledger_id, {"ft": [], "btr": [], "wcert": []})

    for ft in forward_transfers:
        bucket(ft.ledger_id)["ft"].append(ft)
    for btr in btrs:
        bucket(btr.ledger_id)["btr"].append(btr)
    for wcert in wcerts:
        entry = bucket(wcert.ledger_id)
        if entry["wcert"]:
            raise MerkleError("only one withdrawal certificate per sidechain per block")
        entry["wcert"].append(wcert)

    commitments = [
        SidechainCommitment(
            ledger_id=ledger_id,
            forward_transfers=tuple(entry["ft"]),
            btrs=tuple(entry["btr"]),
            wcert=entry["wcert"][0] if entry["wcert"] else None,
        )._seed_from_cache()
        for ledger_id, entry in by_ledger.items()
    ]
    return SidechainTxCommitmentTree(commitments)
