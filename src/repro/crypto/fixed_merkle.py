"""Fixed-depth Merkle trees over field elements (the MST substrate).

The Latus Merkle State Tree (paper §5.2, Fig. 9) is a *fixed-size* binary
tree of depth ``D`` whose ``2**D`` leaves are UTXO slots, each either
occupied (the MiMC hash of the UTXO) or empty (``EMPTY_LEAF``).  Because the
tree must be provable inside SNARK circuits, interior nodes use the
MiMC compression function rather than blake2b.

The implementation stores only occupied nodes and precomputes the hash of
the all-empty subtree at each level, so a tree of depth 30 with a handful
of UTXOs costs O(occupied * D) memory, and single-leaf updates cost O(D).
*Where* those nodes live is a pluggable policy (``repro.storage.pages``):
the default :class:`~repro.storage.pages.DictNodeStore` keeps them in plain
dicts, while :class:`~repro.storage.pages.PagedNodeStore` bounds resident
memory with an LRU page cache spilling to an append-only segment — the
store every node read/write, the occupied-leaf scan, and ``copy()`` route
through.

Bulk workloads should use :meth:`FixedMerkleTree.set_leaves`, which writes
every leaf first and then rehashes each *distinct* dirty ancestor exactly
once level-by-level — O(distinct ancestors) compressions instead of the
O(k * D) a loop of :meth:`FixedMerkleTree.set_leaf` calls costs (see
docs/PERFORMANCE.md).  The batch also prefetches the distinct pages each
level will touch, so a paged store loads them in bulk rather than faulting
node-by-node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.mimc import mimc_compress, mimc_compress_many
from repro.errors import MerkleError

#: Sentinel field value of an empty leaf slot (the paper's ``H(Null)``).
EMPTY_LEAF: int = 0

#: Deepest supported tree; the empty-subtree roots are precomputed up to it.
MAX_DEPTH: int = 63


def _build_empty_roots(max_depth: int) -> tuple[int, ...]:
    """Table of all-empty subtree hashes: entry ``d`` is ``empty_root(d)``."""
    table = [EMPTY_LEAF]
    for _ in range(max_depth):
        child = table[-1]
        table.append(mimc_compress(child, child))
    return tuple(table)


#: ``_EMPTY_ROOTS[level]`` is the hash of the all-empty subtree of that
#: height — a plain tuple lookup on the hot path (no recursion, no cache).
_EMPTY_ROOTS: tuple[int, ...] = _build_empty_roots(MAX_DEPTH)


def empty_root(depth: int) -> int:
    """Hash of the all-empty subtree of ``depth`` levels above the leaves."""
    if depth < 0:
        raise MerkleError("depth must be non-negative")
    if depth > MAX_DEPTH:
        raise MerkleError(f"depth {depth} exceeds max supported depth {MAX_DEPTH}")
    return _EMPTY_ROOTS[depth]


def _default_node_store():
    # Imported lazily: repro.storage pulls in the wire codecs, which import
    # this module right back.  By first-construction time both are loaded.
    from repro.storage.pages import DictNodeStore

    return DictNodeStore()


@dataclass(frozen=True)
class FieldMerkleProof:
    """Membership proof in a fixed-depth field-element tree.

    ``siblings[0]`` is the sibling at the leaf level.  The position encodes
    the path: bit ``i`` of ``position`` is 1 when the node is a right child
    at level ``i``.
    """

    leaf: int
    position: int
    siblings: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def compute_root(self) -> int:
        """Recompute the root committed to by this proof.

        Goes through :func:`repro.crypto.mimc.mimc_compress`, so repeated
        verification of the same proof (or proofs sharing ancestors) hits
        the shared compress cache.
        """
        node = self.leaf
        index = self.position
        for sibling in self.siblings:
            if index & 1:
                node = mimc_compress(sibling, node)
            else:
                node = mimc_compress(node, sibling)
            index >>= 1
        return node

    def verify(self, root: int) -> bool:
        """Return True iff the proof opens to ``root``."""
        return self.compute_root() == root


class FixedMerkleTree:
    """A sparse fixed-depth Merkle tree over field elements.

    Leaves are addressed by position in ``[0, 2**depth)``.  Unset leaves hold
    :data:`EMPTY_LEAF`.  The tree supports point reads/writes, batched
    writes, proofs, and a cheap ``copy`` for state snapshotting.

    ``node_store`` picks where nodes live (``repro.storage.pages``); the
    default dict store matches the historical all-in-memory behavior
    byte-for-byte.
    """

    def __init__(self, depth: int, node_store=None) -> None:
        if depth < 1:
            raise MerkleError("tree depth must be >= 1")
        if depth > MAX_DEPTH:
            raise MerkleError(f"tree depth > {MAX_DEPTH} is not supported")
        self.depth = depth
        self.capacity = 1 << depth
        # Only non-empty nodes are stored; level 0 = leaves, level depth =
        # root.  The store never sees the empty sentinel (_store deletes).
        self._nodes = node_store if node_store is not None else _default_node_store()
        # incremental count of non-empty leaves (maintained by _store)
        self._occupied = 0

    @classmethod
    def from_node_store(
        cls, depth: int, node_store, occupied: int
    ) -> "FixedMerkleTree":
        """Adopt an already-populated store (snapshot recovery).

        ``occupied`` is the persisted non-empty-leaf count — passing it in
        lets a paged store restore lazily instead of scanning every leaf
        page just to recount.
        """
        tree = cls(depth, node_store=node_store)
        tree._occupied = occupied
        return tree

    # -- reads --------------------------------------------------------------

    def _node(self, level: int, index: int) -> int:
        value = self._nodes.get(level, index)
        return _EMPTY_ROOTS[level] if value is None else value

    @property
    def root(self) -> int:
        """The current root hash (the paper's ``mst`` value)."""
        return self._node(self.depth, 0)

    def get_leaf(self, position: int) -> int:
        """Return the leaf value at ``position`` (EMPTY_LEAF when unset)."""
        self._check_position(position)
        return self._node(0, position)

    def is_occupied(self, position: int) -> bool:
        """True when the slot at ``position`` holds a non-empty value."""
        return self.get_leaf(position) != EMPTY_LEAF

    @property
    def occupied_count(self) -> int:
        """Number of non-empty leaf slots (O(1): tracked incrementally)."""
        return self._occupied

    @property
    def node_store(self):
        """The backing node store (for inspection/persistence)."""
        return self._nodes

    def occupied_positions(self) -> list[int]:
        """Sorted positions of non-empty leaves (O(occupied leaves))."""
        return sorted(idx for idx, value in self._nodes.leaf_items() if value != EMPTY_LEAF)

    # -- writes --------------------------------------------------------------

    def set_leaf(self, position: int, value: int) -> None:
        """Write ``value`` into the slot at ``position`` and rehash the path.

        Writing :data:`EMPTY_LEAF` clears the slot.
        """
        self._check_position(position)
        index = position
        self._store(0, index, value)
        node = value
        for level in range(1, self.depth + 1):
            sibling = self._node(level - 1, index ^ 1)
            if index & 1:
                node = mimc_compress(sibling, node)
            else:
                node = mimc_compress(node, sibling)
            index >>= 1
            self._store(level, index, node)

    def set_leaves(self, updates) -> None:
        """Batch write: apply many ``position -> value`` updates at once.

        ``updates`` is a mapping or an iterable of ``(position, value)``
        pairs; later pairs for the same position win, matching the effect of
        sequential :meth:`set_leaf` calls.  All leaves are written first,
        then every *distinct* dirty ancestor is rehashed exactly once
        level-by-level, so ``k`` updates cost O(distinct ancestors)
        compressions instead of O(k * depth).  The resulting tree is
        identical to the one a sequence of ``set_leaf`` calls produces.
        """
        items = updates.items() if isinstance(updates, dict) else updates
        pending: dict[int, int] = {}
        for position, value in items:
            self._check_position(position)
            pending[position] = value
        if not pending:
            return
        self._nodes.prefetch(0, pending)
        for position, value in pending.items():
            self._store(0, position, value)
        dirty = set(pending)
        node = self._node
        store = self._store
        prefetch = self._nodes.prefetch
        for level in range(1, self.depth + 1):
            parents = sorted({index >> 1 for index in dirty})
            below = level - 1
            # Pull the distinct pages this level reads (children + their
            # in-page siblings) and writes (parents) in bulk before the
            # compute loop, so a paged store batches its loads.
            prefetch(below, [i << 1 for i in parents])
            prefetch(level, parents)
            # One batched compression per level: the whole frontier of dirty
            # parents goes to mimc_compress_many, which dedupes cache
            # misses.  Sorted order keeps the batch deterministic.
            nodes = mimc_compress_many(
                [(node(below, i << 1), node(below, (i << 1) | 1)) for i in parents]
            )
            for index, value in zip(parents, nodes):
                store(level, index, value)
            dirty = parents

    def clear_leaf(self, position: int) -> None:
        """Reset the slot at ``position`` to empty."""
        self.set_leaf(position, EMPTY_LEAF)

    def _store(self, level: int, index: int, value: int) -> None:
        if value == _EMPTY_ROOTS[level]:
            if self._nodes.delete(level, index) and level == 0:
                self._occupied -= 1
        else:
            if not self._nodes.set(level, index, value) and level == 0:
                self._occupied += 1

    # -- proofs --------------------------------------------------------------

    def prove(self, position: int) -> FieldMerkleProof:
        """Produce a membership (or non-membership, if empty) proof."""
        self._check_position(position)
        siblings = []
        index = position
        for level in range(self.depth):
            siblings.append(self._node(level, index ^ 1))
            index >>= 1
        return FieldMerkleProof(
            leaf=self.get_leaf(position), position=position, siblings=tuple(siblings)
        )

    # -- misc ----------------------------------------------------------------

    def copy(self) -> "FixedMerkleTree":
        """An independent snapshot of the tree.

        Cost is the node store's ``copy`` policy: O(occupied nodes) for the
        dict store, O(resident pages) for the paged store (dirty pages are
        flushed once and the page table is shared copy-on-write).
        """
        clone = FixedMerkleTree(self.depth, node_store=self._nodes.copy())
        clone._occupied = self._occupied
        return clone

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.capacity:
            raise MerkleError(
                f"position {position} out of range for depth-{self.depth} tree"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedMerkleTree):
            return NotImplemented
        return self.depth == other.depth and self.root == other.root

    def __repr__(self) -> str:
        return (
            f"FixedMerkleTree(depth={self.depth}, occupied={self.occupied_count}, "
            f"root={self.root:#x})"
        )
