"""The Latus system state and its transition function (paper §5.2.1, §5.3).

``state = (MST, backward_transfers)``: the UTXO commitment tree plus the
transient list of backward transfers initiated in the current withdrawal
epoch.  :meth:`LatusState.apply` is the paper's ``update(t, s)``; an invalid
``(t, s)`` pair raises :class:`~repro.errors.StateTransitionError` — the
``⊥`` case — leaving the state unmodified (every apply validates a complete
plan before mutating anything).  :meth:`LatusState.apply_block` extends that
to a whole block: a refused block leaves the state as it found it.
"""

from __future__ import annotations

from repro.core.transfers import BackwardTransfer
from repro.crypto.field import element_from_bytes
from repro.crypto.fixed_merkle import EMPTY_LEAF
from repro.crypto.mimc import mimc_hash
from repro.errors import ConsensusError, StateTransitionError, ZendooError
from repro.latus.mst import MerkleStateTree
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    LatusTransaction,
    PaymentTx,
    SignedInput,
    build_btr_tx,
    build_forward_transfers_tx,
    transition_writes,
)


def _bt_field(bt: BackwardTransfer) -> tuple[int, int]:
    return (element_from_bytes(bt.receiver_addr), bt.amount)


class LatusState:
    """The full sidechain state with validated transition application."""

    def __init__(self, mst_depth: int, node_store=None) -> None:
        self.mst = MerkleStateTree(mst_depth, node_store=node_store)
        self.backward_transfers: list[BackwardTransfer] = []

    # -- digests ------------------------------------------------------------------

    def digest(self) -> int:
        """``H(state)``: a field-element commitment to (MST, BT list)."""
        elements = [self.mst.root]
        for bt in self.backward_transfers:
            elements.extend(_bt_field(bt))
        return mimc_hash(elements)

    @property
    def mst_root(self) -> int:
        """The MST root hash."""
        return self.mst.root

    # -- transition function (the paper's ``update``) -------------------------------

    def apply(self, tx: LatusTransaction) -> None:
        """Apply one transaction; raises :class:`StateTransitionError` on ⊥."""
        if isinstance(tx, PaymentTx):
            self._check_payment(tx)
        elif isinstance(tx, ForwardTransfersTx):
            self._check_forward_transfers(tx)
        elif isinstance(tx, BackwardTransferTx):
            self._check_backward_transfer(tx)
        elif isinstance(tx, BackwardTransferRequestsTx):
            self._check_btr_tx(tx)
        # checked (an unknown type raises in transition_writes): one batched
        # Merkle update per transaction rehashes each dirty ancestor once
        spent, created, bts = transition_writes(tx)
        self.mst.apply_batch(add=created, remove=spent)
        self.backward_transfers.extend(bts)

    def apply_block(self, transitions, digest: int) -> None:
        """Apply one block's transitions and check the digest they reach.

        Atomic: on any :class:`~repro.errors.ZendooError` (a transition is
        ⊥, or the digest differs) it puts back exactly what the transitions
        wrote — the MST leaves they replaced, the touched set and the BT
        list's length — and re-raises.  A refused block so costs its own
        transitions and one batched leaf write, never a copy.
        """
        mst, bt_count = self.mst, len(self.backward_transfers)
        touched = mst.touched_positions
        mst.replaced = replaced = {}
        try:
            for tx in transitions:
                self.apply(tx)
            if self.digest() != digest:
                raise ConsensusError("state digest mismatch")
        except ZendooError:
            mst.undo(replaced, touched)
            del self.backward_transfers[bt_count:]
            raise
        finally:
            mst.replaced = None

    def write_block(self, transitions) -> None:
        """Write a validated block's transitions unchecked (trusted WAL replay).

        Each transition's removals then additions, in block order, fold into
        one ``{position: leaf}`` batch; nothing is verified or re-derived.
        """
        updates: dict[int, int] = {}
        for tx in transitions:
            spent, created, bts = transition_writes(tx)
            updates.update((self.mst.position_of(u), EMPTY_LEAF) for u in spent)
            updates.update((self.mst.position_of(u), u.leaf_value) for u in created)
            self.backward_transfers.extend(bts)
        self.mst.apply_leaf_batch(updates)

    def _check_payment(self, tx: PaymentTx) -> None:
        """§5.3.1: spend inputs, create outputs, conserve value."""
        if not tx.inputs:
            raise StateTransitionError("payment has no inputs")
        self._check_authorizations(tx.inputs, tx.signing_digest)
        if tx.total_in < tx.total_out:
            raise StateTransitionError(
                f"payment outputs {tx.total_out} exceed inputs {tx.total_in}"
            )
        removals = self._plan_removals(i.utxo for i in tx.inputs)
        self._plan_additions(tx.outputs, removals)

    def _check_forward_transfers(self, tx: ForwardTransfersTx) -> None:
        """§5.3.2: mint valid FT outputs, queue refunds for failed FTs.

        The transaction must equal the deterministic derivation from its FT
        list and the current state — otherwise the forger lied about which
        transfers failed.
        """
        expected = build_forward_transfers_tx(tx.mc_block_id, tx.transfers, self.mst)
        if expected.outputs != tx.outputs or expected.rejected != tx.rejected:
            raise StateTransitionError(
                "forward-transfers transaction does not match its deterministic derivation"
            )

    def _check_backward_transfer(self, tx: BackwardTransferTx) -> None:
        """§5.3.3: destroy inputs, queue backward transfers."""
        if not tx.inputs:
            raise StateTransitionError("backward transfer has no inputs")
        self._check_authorizations(tx.inputs, tx.signing_digest)
        if tx.total_in < tx.total_out:
            raise StateTransitionError(
                f"backward transfers {tx.total_out} exceed inputs {tx.total_in}"
            )
        for bt in tx.backward_transfers:
            if bt.amount <= 0:
                raise StateTransitionError("backward transfer amount must be positive")
        self._plan_removals(i.utxo for i in tx.inputs)

    def _check_btr_tx(self, tx: BackwardTransferRequestsTx) -> None:
        """§5.3.4: consume UTXOs claimed by valid synchronized BTRs."""
        expected = build_btr_tx(tx.mc_block_id, tx.requests, self.mst)
        if (
            expected.inputs != tx.inputs
            or expected.backward_transfers != tx.backward_transfers
        ):
            raise StateTransitionError(
                "BTR transaction does not match its deterministic derivation"
            )

    # -- planning helpers (validate before mutate) ------------------------------------

    def _check_authorizations(
        self, inputs: tuple[SignedInput, ...], digest: bytes
    ) -> None:
        for signed in inputs:
            if not signed.owner_matches():
                raise StateTransitionError("input pubkey does not own the utxo")
            if not signed.pubkey.verify(digest, signed.signature):
                raise StateTransitionError("bad input signature")

    def _plan_removals(self, utxos) -> set[int]:
        removed: set[int] = set()
        for utxo in utxos:
            position = self.mst.position_of(utxo)
            if position in removed:
                raise StateTransitionError("transaction spends the same slot twice")
            if not self.mst.contains(utxo):
                raise StateTransitionError("input utxo is not in the state")
            removed.add(position)
        return removed

    def _plan_additions(self, outputs, freed: set[int]) -> None:
        planned: set[int] = set()
        for utxo in outputs:
            if utxo.amount <= 0:
                raise StateTransitionError("output amount must be positive")
            position = self.mst.position_of(utxo)
            occupied = self.mst.slot_occupied(position) and position not in freed
            if occupied or position in planned:
                raise StateTransitionError(
                    f"output collides with occupied MST slot {position}"
                )
            planned.add(position)

    # -- epoch lifecycle ------------------------------------------------------------

    def start_new_epoch(self) -> None:
        """Reset the transient per-epoch data (§5.2.1: BT list is transient)."""
        self.backward_transfers = []
        self.mst.reset_touched()

    # -- snapshotting -----------------------------------------------------------------

    def copy(self) -> "LatusState":
        """Independent snapshot."""
        clone = LatusState.__new__(LatusState)
        clone.mst = self.mst.copy()
        clone.backward_transfers = list(self.backward_transfers)
        return clone
