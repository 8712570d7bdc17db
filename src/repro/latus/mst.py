"""The Merkle State Tree (paper §5.2, Fig. 9).

A fixed-depth field-element Merkle tree whose leaves are UTXO slots.  The
slot of a UTXO is ``MST_Position(utxo)`` — a pure function of the UTXO's
nonce — so adding an output whose slot is already occupied is a *collision*:
the paper's canonical reason for a forward transfer to fail (§5.3.2).

The tree also records which positions were touched since the last epoch
reset; that set is the source of the ``mst_delta`` bit vector (Appendix A).
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.fixed_merkle import EMPTY_LEAF, FieldMerkleProof, FixedMerkleTree
from repro.errors import MstError
from repro.latus.utxo import Utxo


class MerkleStateTree:
    """The Latus UTXO commitment: a sparse fixed-depth MiMC Merkle tree."""

    def __init__(self, depth: int, node_store=None) -> None:
        self.depth = depth
        # node_store picks the tree's storage policy (repro.storage.pages):
        # None = the in-memory dict store, PagedNodeStore = bounded cache.
        self._tree = FixedMerkleTree(depth, node_store=node_store)
        self._touched: set[int] = set()
        #: Undo log: while a dict, :meth:`apply_batch` records in it the
        #: leaf each position held before its first write, ``{position:
        #: prior leaf}`` (:meth:`repro.latus.state.LatusState.apply_block`).
        self.replaced: dict[int, int] | None = None

    # -- queries -----------------------------------------------------------------

    @property
    def root(self) -> int:
        """The current ``mst`` root hash."""
        return self._tree.root

    @property
    def capacity(self) -> int:
        """Number of UTXO slots."""
        return self._tree.capacity

    @property
    def occupied_count(self) -> int:
        """Number of occupied slots."""
        return self._tree.occupied_count

    def position_of(self, utxo: Utxo) -> int:
        """``MST_Position(utxo)`` for this tree's depth."""
        return utxo.position(self.depth)

    def contains(self, utxo: Utxo) -> bool:
        """True when exactly this UTXO occupies its slot."""
        return self._tree.get_leaf(self.position_of(utxo)) == utxo.leaf_value

    def slot_occupied(self, position: int) -> bool:
        """True when the slot holds any UTXO."""
        return self._tree.is_occupied(position)

    def can_add(self, utxo: Utxo) -> bool:
        """True when the UTXO's slot is currently empty."""
        return not self.slot_occupied(self.position_of(utxo))

    # -- mutation -----------------------------------------------------------------

    def add(self, utxo: Utxo) -> int:
        """Occupy the UTXO's slot; raises :class:`MstError` on collision.

        Returns the position written.
        """
        position = self.position_of(utxo)
        if self._tree.is_occupied(position):
            raise MstError(f"MST slot {position} is already occupied (collision)")
        self._tree.set_leaf(position, utxo.leaf_value)
        self._touched.add(position)
        return position

    def remove(self, utxo: Utxo) -> int:
        """Free the UTXO's slot; raises when the slot does not hold it.

        Returns the position cleared.
        """
        position = self.position_of(utxo)
        if self._tree.get_leaf(position) != utxo.leaf_value:
            raise MstError(
                f"MST slot {position} does not contain the claimed utxo"
            )
        self._tree.set_leaf(position, EMPTY_LEAF)
        self._touched.add(position)
        return position

    def apply_batch(
        self, add: Iterable[Utxo] = (), remove: Iterable[Utxo] = ()
    ) -> tuple[list[int], list[int]]:
        """Apply removals then additions as one batched Merkle update.

        Equivalent to calling :meth:`remove` for every UTXO in ``remove``
        followed by :meth:`add` for every UTXO in ``add`` (an addition may
        reuse a slot freed in the same batch), but the tree rehashes each
        distinct dirty ancestor exactly once instead of once per UTXO.
        Validates the whole batch before mutating anything: on
        :class:`MstError` the state is unchanged.

        Returns ``(removed_positions, added_positions)``.
        """
        updates: dict[int, int] = {}
        removed_positions: list[int] = []
        freed: dict[int, int] = {}  # position -> the leaf removed from it
        for utxo in remove:
            position = self.position_of(utxo)
            if position in freed:
                raise MstError(f"batch removes MST slot {position} twice")
            if self._tree.get_leaf(position) != utxo.leaf_value:
                raise MstError(
                    f"MST slot {position} does not contain the claimed utxo"
                )
            freed[position] = utxo.leaf_value
            updates[position] = EMPTY_LEAF
            removed_positions.append(position)
        added_positions: list[int] = []
        planned: set[int] = set()
        for utxo in add:
            position = self.position_of(utxo)
            occupied = self._tree.is_occupied(position) and position not in freed
            if occupied or position in planned:
                raise MstError(
                    f"MST slot {position} is already occupied (collision)"
                )
            planned.add(position)
            updates[position] = utxo.leaf_value
            added_positions.append(position)
        if self.replaced is not None:
            # an added position that was not freed held the empty leaf
            for position in updates:
                self.replaced.setdefault(position, freed.get(position, EMPTY_LEAF))
        self._tree.set_leaves(updates)
        self._touched.update(updates)
        return removed_positions, added_positions

    def apply_leaf_batch(self, updates: dict[int, int]) -> None:
        """Write raw ``{position: leaf}`` updates (trusted WAL replay path).

        Skips validation: the updates were validated when first applied and
        are being replayed from the store.
        """
        if updates:
            self._tree.set_leaves(updates)
            self._touched.update(updates)

    def undo(self, replaced: dict[int, int], touched: frozenset[int]) -> None:
        """Put back the ``replaced`` leaves and the ``touched`` set."""
        if replaced:
            self._tree.set_leaves(replaced)
        self._touched = set(touched)

    # -- proofs ------------------------------------------------------------------

    def prove(self, utxo: Utxo) -> FieldMerkleProof:
        """Membership proof for a contained UTXO."""
        if not self.contains(utxo):
            raise MstError("cannot prove membership of an absent utxo")
        return self._tree.prove(self.position_of(utxo))

    def prove_position(self, position: int) -> FieldMerkleProof:
        """Opening of an arbitrary slot (used for non-membership)."""
        return self._tree.prove(position)

    # -- node store ----------------------------------------------------------------

    @property
    def node_store(self):
        """The tree's backing node store (inspection/persistence)."""
        return self._tree.node_store

    # -- delta tracking ------------------------------------------------------------

    @property
    def touched_positions(self) -> frozenset[int]:
        """Slots modified since the last :meth:`reset_touched`."""
        return frozenset(self._touched)

    def reset_touched(self) -> None:
        """Start a fresh modification-tracking window (new withdrawal epoch)."""
        self._touched.clear()

    # -- snapshotting ----------------------------------------------------------------

    def copy(self) -> "MerkleStateTree":
        """Independent snapshot including the touched set."""
        clone = MerkleStateTree(self.depth)
        clone._tree = self._tree.copy()
        clone._touched = set(self._touched)
        return clone

