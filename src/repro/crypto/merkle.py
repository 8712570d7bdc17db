"""Merkle hash trees over byte digests (paper Def. 2.2, Fig. 2).

This is the byte-oriented tree used on the mainchain side: transaction
Merkle roots and the Sidechain Transactions Commitment tree (§4.1.3).  The
field-element tree provable inside SNARK circuits lives in
:mod:`repro.crypto.fixed_merkle`.

The tree is a full binary tree.  When a level has an odd number of nodes the
last node is duplicated (Bitcoin-style padding), and an empty tree has the
well-known ``NULL_DIGEST`` root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import NULL_DIGEST, hash_bytes, hash_pair
from repro.errors import MerkleError

_LEAF_DOMAIN = b"mht-leaf"
_NODE_DOMAIN = b"mht-node"


def leaf_hash(data: bytes) -> bytes:
    """Hash a raw data block into a leaf digest (domain-separated)."""
    return hash_bytes(data, _LEAF_DOMAIN)


@dataclass(frozen=True)
class MerkleProof:
    """A membership proof: sibling digests from leaf to root.

    ``path_bits[i]`` is True when the proven node is the *right* child at
    level ``i`` (so the sibling goes on the left during recomputation).
    """

    leaf: bytes
    index: int
    siblings: tuple[bytes, ...]
    path_bits: tuple[bool, ...]

    def compute_root(self) -> bytes:
        """Recompute the root committed to by this proof."""
        node = self.leaf
        for sibling, is_right in zip(self.siblings, self.path_bits):
            if is_right:
                node = hash_pair(sibling, node, _NODE_DOMAIN)
            else:
                node = hash_pair(node, sibling, _NODE_DOMAIN)
        return node

    def verify(self, root: bytes) -> bool:
        """Return True iff the proof opens to ``root``."""
        return self.compute_root() == root


class MerkleTree:
    """A Merkle hash tree built over a sequence of leaf digests.

    Leaves are digests already (callers hash their payloads via
    :func:`leaf_hash` or any domain-appropriate hash); the tree only combines
    them upward.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        for leaf in leaves:
            if len(leaf) != len(NULL_DIGEST):
                raise MerkleError("leaves must be 32-byte digests")
        self._leaves: tuple[bytes, ...] = tuple(leaves)
        self._levels: list[list[bytes]] = self._build_levels(self._leaves)

    @staticmethod
    def _build_levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
        levels = [list(leaves) or [NULL_DIGEST]]
        while len(levels[-1]) > 1:
            levels.append(_parents(levels[-1]))
        return levels

    @property
    def root(self) -> bytes:
        """The root digest (the tree authenticator, Fig. 2's ``h1``)."""
        return self._levels[-1][0]

    @property
    def leaves(self) -> tuple[bytes, ...]:
        """The original (unpadded) leaf digests."""
        return self._leaves

    def __len__(self) -> int:
        return len(self._leaves)

    def prove(self, index: int) -> MerkleProof:
        """Produce a membership proof for the leaf at ``index``."""
        if not self._leaves:
            raise MerkleError("cannot prove membership in an empty tree")
        if not 0 <= index < len(self._leaves):
            raise MerkleError(f"leaf index {index} out of range")
        siblings: list[bytes] = []
        path_bits: list[bool] = []
        position = index
        for level in self._levels[:-1]:
            is_right = position % 2 == 1
            sibling_pos = position - 1 if is_right else position + 1
            # levels were padded during build, so the sibling always exists
            siblings.append(level[sibling_pos])
            path_bits.append(is_right)
            position //= 2
        return MerkleProof(
            leaf=self._leaves[index],
            index=index,
            siblings=tuple(siblings),
            path_bits=tuple(path_bits),
        )


def _parents(level: list[bytes]) -> list[bytes]:
    """The level above ``level``, which an odd length pads in place (its
    last node duplicated)."""
    if len(level) % 2:
        level.append(level[-1])
    return [hash_pair(level[i], level[i + 1], _NODE_DOMAIN) for i in range(0, len(level), 2)]


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """The root of the tree over ``leaves`` (32-byte digests), keeping no level."""
    level = list(leaves) or [NULL_DIGEST]
    while len(level) > 1:
        level = _parents(level)
    return level[0]
