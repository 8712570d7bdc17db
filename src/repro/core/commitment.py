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

from dataclasses import dataclass

from repro.core.transfers import (
    BackwardTransferRequest,
    ForwardTransfer,
    WithdrawalCertificate,
)
from repro.crypto.hashing import NULL_DIGEST, hash_concat
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.errors import MerkleError

_SC_LEAF_DOMAIN = b"zendoo/sc-leaf"
_TXS_DOMAIN = b"zendoo/sc-txs"

#: ``TxsHash`` of a sidechain with neither a forward transfer nor a BTR.
_EMPTY_TXS_HASH = hash_concat([NULL_DIGEST, NULL_DIGEST], _TXS_DOMAIN)


def _subtree_hashes(
    fts: tuple[ForwardTransfer, ...],
    btrs: tuple[BackwardTransferRequest, ...],
    wcert: WithdrawalCertificate | None,
) -> tuple[bytes, bytes]:
    """``(TxsHash, WCertHash)``: ``H(FTHash | BTRHash)`` over the two Merkle
    roots, and the certificate digest (NULL when absent)."""
    txs_hash = _EMPTY_TXS_HASH
    if fts or btrs:
        roots = [merkle_root([ft.id for ft in fts]), merkle_root([btr.id for btr in btrs])]
        txs_hash = hash_concat(roots, _TXS_DOMAIN)
    return txs_hash, (NULL_DIGEST if wcert is None else wcert.id)


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
    """The per-sidechain subtree of one block's commitment (Fig. 12); the
    tree hashes each of its leaves once."""

    ledger_id: bytes
    forward_transfers: tuple[ForwardTransfer, ...]
    btrs: tuple[BackwardTransferRequest, ...]
    wcert: WithdrawalCertificate | None

    @property
    def is_empty(self) -> bool:
        """True when the block contains nothing for this sidechain."""
        return not self.forward_transfers and not self.btrs and self.wcert is None


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
        if _subtree_hashes(forward_transfers, btrs, wcert) != (self.txs_hash, self.wcert_hash):
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
        #: ``(TxsHash, WCertHash)`` of each leaf, computed once
        self._hashes = [
            _subtree_hashes(c.forward_transfers, c.btrs, c.wcert) for c in self.commitments
        ]
        self._tree = MerkleTree(
            [_sc_hash(c.ledger_id, *hashes) for c, hashes in zip(self.commitments, self._hashes)]
        )

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
        txs_hash, wcert_hash = self._hashes[index]
        return PresenceProof(
            ledger_id=ledger_id,
            txs_hash=txs_hash,
            wcert_hash=wcert_hash,
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
        txs_hash, wcert_hash = self._hashes[index]
        return _NeighborLeaf(
            ledger_id=self.commitments[index].ledger_id,
            txs_hash=txs_hash,
            wcert_hash=wcert_hash,
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
    by_ledger: dict[bytes, tuple[list, list, list]] = {}
    for kind, actions in enumerate((forward_transfers, btrs, wcerts)):
        for action in actions:
            bucket = by_ledger.get(action.ledger_id)
            if bucket is None:
                bucket = by_ledger[action.ledger_id] = ([], [], [])
            bucket[kind].append(action)
    commitments = []
    for ledger_id, (fts, ledger_btrs, certs) in by_ledger.items():
        if len(certs) > 1:
            raise MerkleError("only one withdrawal certificate per sidechain per block")
        wcert = certs[0] if certs else None
        commitments.append(SidechainCommitment(ledger_id, tuple(fts), tuple(ledger_btrs), wcert))
    return SidechainTxCommitmentTree(commitments)
