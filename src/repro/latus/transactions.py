"""The four Latus transaction types (paper §5.3).

* :class:`PaymentTx` — multi-input multi-output payments (§5.3.1);
* :class:`ForwardTransfersTx` — MC-authorized coinbase minting synced
  forward transfers, with a rejection path for failed FTs (§5.3.2);
* :class:`BackwardTransferTx` — sidechain-initiated withdrawals (§5.3.3);
* :class:`BackwardTransferRequestsTx` — MC-submitted withdrawal requests
  synchronized into the sidechain (§5.3.4).

Payment-like transactions are authorized by Schnorr signatures over the
transaction digest; MC-defined transactions (FTTx/BTRTx) are deterministic
functions of the referenced MC block content and the sidechain state, so
every honest node derives byte-identical copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.transfers import BackwardTransfer, BackwardTransferRequest, ForwardTransfer
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair, address_of
from repro.crypto.signatures import PublicKey, Signature
from repro.encoding import Encoder
from repro.errors import LatusError, StateTransitionError
from repro.latus.mst import MerkleStateTree
from repro.latus.utxo import Utxo, address_to_field, derive_nonce

#: Latus ``receiverMetadata`` layout: receiver address ∥ payback address.
METADATA_BYTES: int = 64


def pack_receiver_metadata(receiver_addr: bytes, payback_addr: bytes) -> bytes:
    """Build the Latus forward-transfer metadata (§5.3.2)."""
    if len(receiver_addr) != 32 or len(payback_addr) != 32:
        raise LatusError("addresses must be 32 bytes")
    return receiver_addr + payback_addr


def parse_receiver_metadata(metadata: bytes) -> tuple[bytes, bytes] | None:
    """Parse metadata into ``(receiver, payback)``; None when malformed."""
    if len(metadata) != METADATA_BYTES:
        return None
    return metadata[:32], metadata[32:]


@dataclass(frozen=True)
class SignedInput:
    """A spent UTXO with the authorizing public key and signature."""

    utxo: Utxo
    pubkey: PublicKey
    signature: Signature

    def owner_matches(self) -> bool:
        """True when the pubkey hashes to the UTXO's owner address."""
        return address_to_field(address_of(self.pubkey)) == self.utxo.addr

    def encode_unsigned(self) -> bytes:
        return (
            Encoder()
            .var_bytes(self.utxo.encode())
            .var_bytes(self.pubkey.to_bytes())
            .done()
        )

    def encode(self) -> bytes:
        return (
            Encoder()
            .var_bytes(self.utxo.encode())
            .var_bytes(self.pubkey.to_bytes())
            .var_bytes(self.signature.to_bytes())
            .done()
        )


class _LatusTxBase:
    """Shared id/digest machinery for Latus transactions."""

    kind: int = 0

    def encode_unsigned(self) -> bytes:  # pragma: no cover - overridden
        raise NotImplementedError

    @cached_property
    def txid(self) -> bytes:
        """The transaction id (signature-independent)."""
        return hash_bytes(self.encode_unsigned(), b"latus/txid")

    @property
    def signing_digest(self) -> bytes:
        """The message each input signature must cover."""
        return hash_bytes(self.encode_unsigned(), b"latus/sighash")


@dataclass(frozen=True)
class PaymentTx(_LatusTxBase):
    """A regular sidechain payment (§5.3.1)."""

    inputs: tuple[SignedInput, ...]
    outputs: tuple[Utxo, ...]

    kind = 1

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode_unsigned()))
        enc.sequence(self.outputs, lambda e, o: e.var_bytes(o.encode()))
        return enc.done()

    def encode(self) -> bytes:
        """Full wire encoding including input signatures."""
        enc = Encoder().u8(self.kind)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode()))
        enc.sequence(self.outputs, lambda e, o: e.var_bytes(o.encode()))
        return enc.done()

    @property
    def total_in(self) -> int:
        """Sum of input amounts."""
        return sum(i.utxo.amount for i in self.inputs)

    @property
    def total_out(self) -> int:
        """Sum of output amounts."""
        return sum(o.amount for o in self.outputs)


@dataclass(frozen=True)
class BackwardTransferTx(_LatusTxBase):
    """A sidechain-initiated withdrawal (§5.3.3).

    All "outputs" are backward transfers: unspendable on the sidechain,
    reclaimed on the mainchain through the next withdrawal certificate.
    """

    inputs: tuple[SignedInput, ...]
    backward_transfers: tuple[BackwardTransfer, ...]

    kind = 2

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode_unsigned()))
        enc.sequence(self.backward_transfers, lambda e, bt: e.var_bytes(bt.encode()))
        return enc.done()

    def encode(self) -> bytes:
        """Full wire encoding including input signatures."""
        enc = Encoder().u8(self.kind)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode()))
        enc.sequence(self.backward_transfers, lambda e, bt: e.var_bytes(bt.encode()))
        return enc.done()

    @property
    def total_in(self) -> int:
        """Sum of input amounts."""
        return sum(i.utxo.amount for i in self.inputs)

    @property
    def total_out(self) -> int:
        """Sum of withdrawn amounts."""
        return sum(bt.amount for bt in self.backward_transfers)


@dataclass(frozen=True)
class ForwardTransfersTx(_LatusTxBase):
    """The MC-authorized minting transaction syncing forward transfers.

    Deterministically derived from the referenced MC block's FT list and the
    sidechain state at application point (see :func:`build_forward_transfers_tx`):
    every valid FT mints an output; every failed FT (malformed metadata with
    a recoverable payback address, or an MST slot collision) spawns a
    backward transfer refunding the sender (§5.3.2).  An FT whose metadata
    is entirely unparseable is burned — the coins remain locked in the
    sidechain's mainchain balance (documented substitution: the paper leaves
    this case undefined).
    """

    mc_block_id: bytes
    transfers: tuple[ForwardTransfer, ...]
    outputs: tuple[Utxo, ...]
    rejected: tuple[BackwardTransfer, ...]

    kind = 3

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind).raw(self.mc_block_id)
        enc.sequence(self.transfers, lambda e, ft: e.var_bytes(ft.encode()))
        enc.sequence(self.outputs, lambda e, o: e.var_bytes(o.encode()))
        enc.sequence(self.rejected, lambda e, bt: e.var_bytes(bt.encode()))
        return enc.done()

    def encode(self) -> bytes:
        """Full wire encoding (MC-defined transactions carry no witnesses)."""
        return self.encode_unsigned()


@dataclass(frozen=True)
class BackwardTransferRequestsTx(_LatusTxBase):
    """The synchronization transaction for MC-submitted BTRs (§5.3.4).

    ``inputs`` are the UTXOs consumed by *accepted* requests; rejected BTRs
    (those whose claimed UTXO is no longer in the state) spawn nothing.
    """

    mc_block_id: bytes
    requests: tuple[BackwardTransferRequest, ...]
    inputs: tuple[Utxo, ...]
    backward_transfers: tuple[BackwardTransfer, ...]

    kind = 4

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind).raw(self.mc_block_id)
        enc.sequence(self.requests, lambda e, r: e.var_bytes(r.encode()))
        enc.sequence(self.inputs, lambda e, u: e.var_bytes(u.encode()))
        enc.sequence(self.backward_transfers, lambda e, bt: e.var_bytes(bt.encode()))
        return enc.done()

    def encode(self) -> bytes:
        """Full wire encoding (MC-defined transactions carry no witnesses)."""
        return self.encode_unsigned()


LatusTransaction = (
    PaymentTx | BackwardTransferTx | ForwardTransfersTx | BackwardTransferRequestsTx
)


def transition_writes(
    tx: LatusTransaction,
) -> tuple[tuple[Utxo, ...], tuple[Utxo, ...], tuple[BackwardTransfer, ...]]:
    """What one transition writes: ``(spent, created, bts)``.

    The UTXOs it removes from the MST, then the UTXOs it adds (a created
    output may take a slot a spent one freed), then the backward transfers
    it appends to the BT list (§5.3).
    """
    if isinstance(tx, PaymentTx):
        return tuple(i.utxo for i in tx.inputs), tx.outputs, ()
    if isinstance(tx, BackwardTransferTx):
        return tuple(i.utxo for i in tx.inputs), (), tx.backward_transfers
    if isinstance(tx, ForwardTransfersTx):
        return (), tx.outputs, tx.rejected
    if isinstance(tx, BackwardTransferRequestsTx):
        return tx.inputs, (), tx.backward_transfers
    raise StateTransitionError(f"unknown transaction type {type(tx).__name__}")


def index_transition(utxo_index: dict[int, Utxo], tx: LatusTransaction) -> None:
    """Maintain a full-UTXO index (nonce → output) across one applied transition."""
    spent, created, _ = transition_writes(tx)
    for utxo in spent:
        utxo_index.pop(utxo.nonce, None)
    for utxo in created:
        utxo_index[utxo.nonce] = utxo


# ---------------------------------------------------------------------------
# Deterministic builders for the MC-defined transactions
# ---------------------------------------------------------------------------


def ft_output(ft: ForwardTransfer, receiver_addr: bytes) -> Utxo:
    """The UTXO a forward transfer mints (nonce derived from the FT id)."""
    return Utxo(
        addr=address_to_field(receiver_addr),
        amount=ft.amount,
        nonce=derive_nonce(ft.id),
    )


def build_forward_transfers_tx(
    mc_block_id: bytes,
    transfers: tuple[ForwardTransfer, ...],
    mst: MerkleStateTree,
) -> ForwardTransfersTx:
    """Derive the FTTx for a referenced MC block (§5.3.2's semantics).

    The derivation is a pure function of ``(mc_block_id, transfers, mst)``,
    so every honest node computes the same transaction.  Slot availability
    is evaluated sequentially: earlier FTs in the block occupy slots seen by
    later ones.
    """
    outputs: list[Utxo] = []
    rejected: list[BackwardTransfer] = []
    planned_slots: set[int] = set()
    for ft in transfers:
        parsed = parse_receiver_metadata(ft.receiver_metadata)
        if parsed is None:
            continue  # unparseable: burned (see class docstring)
        receiver_addr, payback_addr = parsed
        utxo = ft_output(ft, receiver_addr)
        position = mst.position_of(utxo)
        if mst.slot_occupied(position) or position in planned_slots:
            rejected.append(
                BackwardTransfer(receiver_addr=payback_addr, amount=ft.amount)
            )
            continue
        planned_slots.add(position)
        outputs.append(utxo)
    return ForwardTransfersTx(
        mc_block_id=mc_block_id,
        transfers=transfers,
        outputs=tuple(outputs),
        rejected=tuple(rejected),
    )


def utxo_from_btr_proofdata(proofdata: tuple[int, ...]) -> Utxo | None:
    """Reconstruct the claimed UTXO from a Latus BTR's proofdata.

    Latus declares ``proofdata = (addr, amount, nonce)`` (§5.5.3.2's
    ``{utxo}``); returns None when the shape is wrong.
    """
    if len(proofdata) != 3:
        return None
    addr, amount, nonce = proofdata
    if amount >= 1 << 64:
        return None
    return Utxo(addr=addr, amount=amount, nonce=nonce)


def build_btr_tx(
    mc_block_id: bytes,
    requests: tuple[BackwardTransferRequest, ...],
    mst: MerkleStateTree,
) -> BackwardTransferRequestsTx:
    """Derive the BTRTx for a referenced MC block (§5.3.4's semantics).

    A request is accepted iff its claimed UTXO is (still) present in the
    state and the requested amount matches; double-claims within the same
    block are rejected deterministically (first wins).
    """
    inputs: list[Utxo] = []
    backward_transfers: list[BackwardTransfer] = []
    consumed: set[int] = set()
    for request in requests:
        utxo = utxo_from_btr_proofdata(request.proofdata)
        if utxo is None:
            continue
        position = mst.position_of(utxo)
        if position in consumed or not mst.contains(utxo):
            continue
        if request.amount != utxo.amount:
            continue
        consumed.add(position)
        inputs.append(utxo)
        backward_transfers.append(
            BackwardTransfer(receiver_addr=request.receiver, amount=request.amount)
        )
    return BackwardTransferRequestsTx(
        mc_block_id=mc_block_id,
        requests=requests,
        inputs=tuple(inputs),
        backward_transfers=tuple(backward_transfers),
    )


# ---------------------------------------------------------------------------
# Payment-side builders
# ---------------------------------------------------------------------------


def sign_payment(
    inputs: list[tuple[Utxo, KeyPair]], outputs: list[Utxo]
) -> PaymentTx:
    """Build and sign a payment transaction."""
    draft = PaymentTx(
        inputs=tuple(
            SignedInput(utxo=u, pubkey=kp.public, signature=Signature(e=1, s=1))
            for u, kp in inputs
        ),
        outputs=tuple(outputs),
    )
    digest = draft.signing_digest
    return PaymentTx(
        inputs=tuple(
            SignedInput(utxo=u, pubkey=kp.public, signature=kp.sign(digest))
            for u, kp in inputs
        ),
        outputs=tuple(outputs),
    )


def sign_backward_transfer(
    inputs: list[tuple[Utxo, KeyPair]],
    backward_transfers: list[BackwardTransfer],
) -> BackwardTransferTx:
    """Build and sign a backward-transfer transaction."""
    draft = BackwardTransferTx(
        inputs=tuple(
            SignedInput(utxo=u, pubkey=kp.public, signature=Signature(e=1, s=1))
            for u, kp in inputs
        ),
        backward_transfers=tuple(backward_transfers),
    )
    digest = draft.signing_digest
    return BackwardTransferTx(
        inputs=tuple(
            SignedInput(utxo=u, pubkey=kp.public, signature=kp.sign(digest))
            for u, kp in inputs
        ),
        backward_transfers=tuple(backward_transfers),
    )
