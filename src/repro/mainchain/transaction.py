"""Mainchain transaction types.

The paper assumes a UTXO mainchain (§4.1.1) where:

* regular multi-input/multi-output transactions may carry **forward
  transfer** outputs (unspendable, coin-destroying);
* sidechain declarations (§4.2), withdrawal certificates (Def. 4.4),
  backward transfer requests (Def. 4.5) and ceased sidechain withdrawals
  (Def. 4.6) are special transactions.

Transaction ids are blake2b digests over the canonical encoding *without*
signatures; inputs sign that digest so ids are signature-independent.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.bootstrap import SidechainConfig
from repro.core.transfers import (
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
)
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair, address_of
from repro.crypto.signatures import PublicKey, Signature
from repro.encoding import Encoder
from repro.errors import ValidationError
from repro.mainchain.utxo import Outpoint, TxOutput


@dataclass(frozen=True)
class TxInput:
    """A spend of a previous output, authorized by a Schnorr signature.

    The signature covers the host transaction's signing digest; ``pubkey``
    must hash to the spent output's address.
    """

    outpoint: Outpoint
    pubkey: PublicKey
    signature: Signature

    def encode_unsigned(self) -> bytes:
        """Encoding without the signature (feeds the txid/signing digest)."""
        return Encoder().raw(self.outpoint.encode()).var_bytes(self.pubkey.to_bytes()).done()

    def encode(self) -> bytes:
        """Full encoding including the signature."""
        return (
            Encoder()
            .raw(self.outpoint.encode())
            .var_bytes(self.pubkey.to_bytes())
            .var_bytes(self.signature.to_bytes())
            .done()
        )


class BaseTransaction(abc.ABC):
    """Common surface of all mainchain transactions."""

    __slots__ = ()
    #: Discriminator byte mixed into every encoding.
    kind: int = 0

    @abc.abstractmethod
    def encode_unsigned(self) -> bytes:
        """Canonical encoding without witness data (defines the txid)."""

    @abc.abstractmethod
    def encode(self) -> bytes:
        """Full canonical encoding."""

    @cached_property
    def txid(self) -> bytes:
        """The transaction id."""
        return hash_bytes(self.encode_unsigned(), b"zendoo/mc-txid")

    @property
    def signing_digest(self) -> bytes:
        """The message every input signature must cover."""
        return hash_bytes(self.encode_unsigned(), b"zendoo/mc-sighash")


@dataclass(frozen=True)
class CoinTransaction(BaseTransaction):
    """A regular multi-input multi-output transaction (§4.1.1's example).

    ``forward_transfers`` are the unspendable coin-destroying outputs; a
    coinbase transaction has no inputs and is flagged explicitly.
    """

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    forward_transfers: tuple[ForwardTransfer, ...] = ()
    is_coinbase: bool = False
    #: Disambiguates coinbase txids across blocks.
    coinbase_tag: bytes = b""

    kind = 1

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind).boolean(self.is_coinbase).var_bytes(self.coinbase_tag)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode_unsigned()))
        enc.sequence(self.outputs, lambda e, o: e.var_bytes(o.encode()))
        enc.sequence(self.forward_transfers, lambda e, ft: e.var_bytes(ft.encode()))
        return enc.done()

    def encode(self) -> bytes:
        enc = Encoder().u8(self.kind).boolean(self.is_coinbase).var_bytes(self.coinbase_tag)
        enc.sequence(self.inputs, lambda e, i: e.var_bytes(i.encode()))
        enc.sequence(self.outputs, lambda e, o: e.var_bytes(o.encode()))
        enc.sequence(self.forward_transfers, lambda e, ft: e.var_bytes(ft.encode()))
        return enc.done()

    @property
    def output_total(self) -> int:
        """Sum of spendable outputs plus destroyed forward-transfer coins."""
        return sum(o.amount for o in self.outputs) + sum(
            ft.amount for ft in self.forward_transfers
        )


@dataclass(frozen=True)
class SidechainDeclarationTx(BaseTransaction):
    """The special transaction that creates a sidechain (§4.2)."""

    config: SidechainConfig

    kind = 2

    def encode_unsigned(self) -> bytes:
        return Encoder().u8(self.kind).var_bytes(self.config.encode()).done()

    def encode(self) -> bytes:
        return self.encode_unsigned()


@dataclass(frozen=True, slots=True)
class CertificateTx(BaseTransaction):
    """Carrier of a withdrawal certificate (Def. 4.4).

    Backward-transfer payouts are not ordinary outputs: the chain creates
    them as protocol-level coins that mature at the end of the submission
    window (so a higher-quality certificate can still supersede them).
    """

    wcert: WithdrawalCertificate
    _txid: bytes | None = field(default=None, init=False, compare=False, repr=False)

    kind = 3

    @property
    def txid(self) -> bytes:
        """The transaction id, kept in a slot (the type has no ``__dict__``)."""
        if self._txid is None:
            object.__setattr__(self, "_txid", BaseTransaction.txid.func(self))
        return self._txid

    def encode_unsigned(self) -> bytes:
        return Encoder().u8(self.kind).var_bytes(self.wcert.encode()).done()

    def encode(self) -> bytes:
        return self.encode_unsigned()


@dataclass(frozen=True)
class BtrTx(BaseTransaction):
    """Carrier of backward transfer requests (Def. 4.5)."""

    requests: tuple[BackwardTransferRequest, ...]

    kind = 4

    def encode_unsigned(self) -> bytes:
        enc = Encoder().u8(self.kind)
        enc.sequence(self.requests, lambda e, r: e.var_bytes(r.encode()))
        return enc.done()

    def encode(self) -> bytes:
        return self.encode_unsigned()


@dataclass(frozen=True)
class CswTx(BaseTransaction):
    """Carrier of a ceased sidechain withdrawal (Def. 4.6).

    On acceptance the chain pays ``csw.amount`` to ``csw.receiver`` directly
    (outpoint ``(txid, 0)``).
    """

    csw: CeasedSidechainWithdrawal

    kind = 5

    def encode_unsigned(self) -> bytes:
        return Encoder().u8(self.kind).var_bytes(self.csw.encode()).done()

    def encode(self) -> bytes:
        return self.encode_unsigned()


Transaction = (
    CoinTransaction | SidechainDeclarationTx | CertificateTx | BtrTx | CswTx
)


@dataclass
class _PlannedInput:
    outpoint: Outpoint
    keypair: KeyPair
    amount: int


class TransactionBuilder:
    """Convenience builder for signed :class:`CoinTransaction` objects.

    Usage::

        tx = (TransactionBuilder()
              .spend(outpoint, keypair, amount)
              .pay(receiver_addr, 30)
              .forward_transfer(ledger_id, metadata, 20)
              .build())
    """

    def __init__(self) -> None:
        self._inputs: list[_PlannedInput] = []
        self._outputs: list[TxOutput] = []
        self._fts: list[ForwardTransfer] = []

    def spend(self, outpoint: Outpoint, keypair: KeyPair, amount: int) -> "TransactionBuilder":
        """Add an input spending ``outpoint`` owned by ``keypair``."""
        self._inputs.append(_PlannedInput(outpoint, keypair, amount))
        return self

    def pay(self, addr: bytes, amount: int) -> "TransactionBuilder":
        """Add a regular output."""
        self._outputs.append(TxOutput(addr=addr, amount=amount))
        return self

    def forward_transfer(
        self, ledger_id: bytes, receiver_metadata: bytes, amount: int
    ) -> "TransactionBuilder":
        """Add a forward-transfer output (destroys coins on the MC)."""
        self._fts.append(
            ForwardTransfer(
                ledger_id=ledger_id, receiver_metadata=receiver_metadata, amount=amount
            )
        )
        return self

    def change_to(self, addr: bytes) -> "TransactionBuilder":
        """Add a change output returning the input surplus to ``addr``."""
        total_in = sum(p.amount for p in self._inputs)
        total_out = sum(o.amount for o in self._outputs) + sum(f.amount for f in self._fts)
        if total_in < total_out:
            raise ValidationError("inputs do not cover outputs; cannot compute change")
        if total_in > total_out:
            self._outputs.append(TxOutput(addr=addr, amount=total_in - total_out))
        return self

    def build(self) -> CoinTransaction:
        """Sign all inputs and return the finished transaction."""
        # Two-pass signing: txid covers inputs' outpoints and pubkeys only,
        # so the digest can be computed before signatures exist.
        placeholder = Signature(e=1, s=1)
        draft_inputs = tuple(
            TxInput(outpoint=p.outpoint, pubkey=p.keypair.public, signature=placeholder)
            for p in self._inputs
        )
        draft = CoinTransaction(
            inputs=draft_inputs,
            outputs=tuple(self._outputs),
            forward_transfers=tuple(self._fts),
        )
        digest = draft.signing_digest
        signed_inputs = tuple(
            TxInput(
                outpoint=p.outpoint,
                pubkey=p.keypair.public,
                signature=p.keypair.sign(digest),
            )
            for p in self._inputs
        )
        return CoinTransaction(
            inputs=signed_inputs,
            outputs=tuple(self._outputs),
            forward_transfers=tuple(self._fts),
        )


def make_coinbase(
    miner_addr: bytes, reward: int, height: int, extra_tag: bytes = b""
) -> CoinTransaction:
    """Build the coinbase transaction for a block at ``height``."""
    tag = Encoder().u64(height).var_bytes(extra_tag).done()
    return CoinTransaction(
        inputs=(),
        outputs=(TxOutput(addr=miner_addr, amount=reward),),
        is_coinbase=True,
        coinbase_tag=tag,
    )


def verify_input_signatures(tx: CoinTransaction) -> bool:
    """Check every input's signature over the transaction digest."""
    digest = tx.signing_digest
    return all(
        inp.pubkey.verify(digest, inp.signature) for inp in tx.inputs
    )


def input_owner_matches(inp: TxInput, owner_addr: bytes) -> bool:
    """Check that an input's pubkey hashes to the spent output's address."""
    return address_of(inp.pubkey) == owner_addr
