"""Cross-chain transfer datatypes (paper §4.1).

These are the four sidechain-related actions the mainchain understands —
Forward Transfer (Def. 4.1), Backward Transfer (Def. 4.3) carried inside
Withdrawal Certificates (Def. 4.4), Backward Transfer Requests (Def. 4.5)
and Ceased Sidechain Withdrawals (Def. 4.6) — together with the helpers
that assemble their SNARK public inputs (``wcert_sysdata``/``btr_sysdata``).

All types are immutable value objects with canonical serialization; object
ids are blake2b digests of those encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.field import element_from_bytes
from repro.crypto.hashing import hash_bytes
from repro.crypto.merkle import leaf_hash, merkle_root
from repro.crypto.mimc import mimc_hash
from repro.encoding import Encoder
from repro.snark.proving import Proof

#: Sidechain identifiers are 32-byte strings, unique per mainchain.
LEDGER_ID_BYTES: int = 32


def _cached_id(value, tag: bytes) -> bytes:
    """``value``'s id, the digest of its encoding under ``tag``, computed
    once into its ``_id`` slot (a field ``dataclasses.replace`` resets)."""
    if value._id is None:
        object.__setattr__(value, "_id", hash_bytes(value.encode(), tag))
    return value._id


def derive_ledger_id(seed: bytes | str) -> bytes:
    """Derive a ledger id deterministically from a seed (tests/examples)."""
    if isinstance(seed, str):
        seed = seed.encode()
    return hash_bytes(seed, b"zendoo/ledger-id")


@dataclass(frozen=True, slots=True)
class ForwardTransfer:
    """Forward Transfer (Def. 4.1): mainchain → sidechain.

    ``receiver_metadata`` is opaque to the mainchain — its semantics are
    fixed by the destination sidechain (Latus packs a receiver address and a
    payback address into it, §5.3.2).
    """

    ledger_id: bytes
    receiver_metadata: bytes
    amount: int
    _id: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def encode(self) -> bytes:
        """Canonical byte encoding, ``ledger_id | var_bytes(metadata) | u64(amount)``."""
        meta, amount = self.receiver_metadata, self.amount.to_bytes(8, "little")
        return b"".join((self.ledger_id, len(meta).to_bytes(4, "little"), meta, amount))

    @property
    def id(self) -> bytes:
        """Digest identifying this transfer inside commitment trees."""
        return _cached_id(self, b"zendoo/ft")


@dataclass(frozen=True, slots=True)
class BackwardTransfer:
    """Backward Transfer (Def. 4.3): a payout entry inside a certificate."""

    receiver_addr: bytes
    amount: int
    _id: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def encode(self) -> bytes:
        """Canonical byte encoding, ``var_bytes(receiver_addr) | u64(amount)``."""
        addr = self.receiver_addr
        return len(addr).to_bytes(4, "little") + addr + self.amount.to_bytes(8, "little")

    @property
    def id(self) -> bytes:
        """Digest of this backward transfer."""
        return _cached_id(self, b"zendoo/bt")


def bt_list_root(bt_list: tuple[BackwardTransfer, ...]) -> bytes:
    """The ``MH(BTList)`` Merkle root over a certificate's backward transfers."""
    return merkle_root([leaf_hash(bt.encode()) for bt in bt_list])


def proofdata_root(proofdata: tuple[int, ...]) -> int:
    """The ``MH(proofdata)`` digest: field elements combined with MiMC.

    The paper combines proofdata variables into a Merkle tree and passes the
    root so the SNARK public input stays short; a MiMC chain hash provides
    the same binding with the same circuit-friendliness.
    """
    return mimc_hash(proofdata)


@dataclass(frozen=True, slots=True)
class WithdrawalCertificate:
    """Withdrawal Certificate (Def. 4.4): the per-epoch sidechain heartbeat.

    ``proofdata`` is the sidechain-defined public data (a tuple of field
    elements); ``proof`` the SNARK proof validated against the key registered
    at sidechain creation.
    """

    ledger_id: bytes
    epoch_id: int
    quality: int
    bt_list: tuple[BackwardTransfer, ...]
    proofdata: tuple[int, ...]
    proof: Proof
    _id: bytes | None = field(default=None, init=False, compare=False, repr=False)

    def encode(self) -> bytes:
        """Canonical byte encoding (the :class:`Encoder` layout, built in one
        join).  It also fills :attr:`id`, so a certificate the mempool
        admitted by its txid is not encoded again when it connects."""
        proof, proofdata = self.proof.to_bytes(), self.proofdata
        bts = [bt.encode() for bt in self.bt_list]
        data = b"".join((
            self.ledger_id, self.epoch_id.to_bytes(8, "little"), self.quality.to_bytes(8, "little"),
            len(bts).to_bytes(4, "little"), *(len(bt).to_bytes(4, "little") + bt for bt in bts),
            len(proofdata).to_bytes(4, "little"), *(v.to_bytes(32, "little") for v in proofdata),
            len(proof).to_bytes(4, "little"), proof,
        ))
        if self._id is None:
            object.__setattr__(self, "_id", hash_bytes(data, b"zendoo/wcert"))
        return data

    @property
    def id(self) -> bytes:
        """Digest identifying this certificate (:meth:`encode` computes it)."""
        if self._id is None:
            self.encode()
        return self._id

    @property
    def withdrawn_amount(self) -> int:
        """Total coins this certificate moves back to the mainchain."""
        return sum(bt.amount for bt in self.bt_list)

    def sysdata(self, h_prev_epoch_last: bytes, h_epoch_last: bytes) -> tuple[int, ...]:
        """The mainchain-enforced ``wcert_sysdata`` as field elements.

        ``(quality, MH(BTList), H(B^{i-1}_last), H(B^i_last))`` per §4.1.2.
        """
        return (
            self.quality,
            element_from_bytes(bt_list_root(self.bt_list)),
            element_from_bytes(h_prev_epoch_last),
            element_from_bytes(h_epoch_last),
        )

    def public_input(
        self, h_prev_epoch_last: bytes, h_epoch_last: bytes
    ) -> tuple[int, ...]:
        """The full SNARK public input ``(wcert_sysdata, MH(proofdata))``."""
        return self.sysdata(h_prev_epoch_last, h_epoch_last) + (
            proofdata_root(self.proofdata),
        )


@dataclass(frozen=True, slots=True)
class _NullifiedWithdrawal:
    """What a BTR and a CSW share: a SNARK-proved claim of ``amount`` for
    ``receiver`` on a sidechain, consumed once by its ``nullifier``."""

    ledger_id: bytes
    receiver: bytes
    amount: int
    nullifier: bytes
    proofdata: tuple[int, ...]
    proof: Proof
    _id: bytes | None = field(default=None, init=False, compare=False, repr=False)

    #: Domain of :attr:`id`.
    _ID_TAG = b""

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        enc = (
            Encoder()
            .raw(self.ledger_id)
            .var_bytes(self.receiver)
            .u64(self.amount)
            .var_bytes(self.nullifier)
        )
        enc.sequence(self.proofdata, lambda e, v: e.field_element(v))
        enc.var_bytes(self.proof.to_bytes())
        return enc.done()

    @property
    def id(self) -> bytes:
        """Digest identifying this request."""
        return _cached_id(self, self._ID_TAG)

    def sysdata(self, h_last_wcert_block: bytes) -> tuple[int, ...]:
        """``(H(Bw), nullifier, receiver, amount)``: the ``btr_sysdata`` of
        Def. 4.5, and a CSW's of the same shape (Def. 4.6)."""
        return (
            element_from_bytes(h_last_wcert_block),
            element_from_bytes(self.nullifier),
            element_from_bytes(hash_bytes(self.receiver, b"zendoo/receiver")),
            self.amount,
        )

    def public_input(self, h_last_wcert_block: bytes) -> tuple[int, ...]:
        """The full SNARK public input ``(sysdata, MH(proofdata))``."""
        return self.sysdata(h_last_wcert_block) + (proofdata_root(self.proofdata),)


@dataclass(frozen=True, slots=True)
class BackwardTransferRequest(_NullifiedWithdrawal):
    """Backward Transfer Request (Def. 4.5): MC-submitted withdrawal request.

    Does *not* move coins on the mainchain — it is synchronized to the
    sidechain, which services it through the next withdrawal certificate.
    """

    _ID_TAG = b"zendoo/btr"


@dataclass(frozen=True, slots=True)
class CeasedSidechainWithdrawal(_NullifiedWithdrawal):
    """Ceased Sidechain Withdrawal (Def. 4.6): direct payout from a dead SC.

    Structurally identical to a BTR but performs a direct payment; only valid
    once the sidechain has ceased.
    """

    _ID_TAG = b"zendoo/csw"
