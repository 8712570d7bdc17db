"""The mainchain UTXO set.

Standard Bitcoin-style bookkeeping: outputs are identified by
``(txid, index)`` outpoints; coins carry their creation height and an
optional maturity height (coinbase outputs and certificate payouts are
locked until mature).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cow import CowDict
from repro.encoding import Encoder
from repro.errors import DoubleSpend


def outpoint_key(txid: bytes, index: int) -> bytes:
    """The UTXO set's key: ``txid ‖ index``, the index as 4 big-endian bytes
    so that byte order is ``(txid, index)`` order."""
    return txid + index.to_bytes(4, "big")


@dataclass(frozen=True)
class Outpoint:
    """Reference to the ``index``-th output of transaction ``txid``."""

    txid: bytes
    index: int

    @property
    def key(self) -> bytes:
        return outpoint_key(self.txid, self.index)

    @classmethod
    def from_key(cls, key: bytes) -> "Outpoint":
        return cls(key[:32], int.from_bytes(key[32:], "big"))

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        return Encoder().raw(self.txid).u32(self.index).done()


@dataclass(frozen=True)
class TxOutput:
    """A spendable output: ``amount`` coins locked to ``addr``."""

    addr: bytes
    amount: int

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        return Encoder().var_bytes(self.addr).u64(self.amount).done()


@dataclass(frozen=True)
class Coin:
    """A UTXO entry: the output plus its provenance metadata."""

    output: TxOutput
    created_height: int
    maturity_height: int = 0

    @classmethod
    def from_value(cls, value: tuple) -> "Coin":
        """The coin a :class:`UTXOSet` stores as ``value``."""
        addr, amount, created_height, maturity_height = value
        return cls(TxOutput(addr, amount), created_height, maturity_height)

    def spendable_at(self, height: int) -> bool:
        """True when the coin may be spent in a block at ``height``."""
        return height >= self.maturity_height


class UTXOSet:
    """A mutable map from outpoints to coins.

    Stored as values the cyclic GC never tracks: the keys are
    :func:`outpoint_key` bytes, which cache their hash, and the values are
    plain ``(addr, amount, created_height, maturity_height)`` tuples of
    atoms.  :class:`Outpoint` and :class:`Coin` are built on read.  Backed
    by a layered copy-on-write dict so the per-block state snapshot costs
    O(coins touched since the last snapshot), not O(UTXO set).
    """

    def __init__(self) -> None:
        self._coins: CowDict = CowDict()

    def __len__(self) -> int:
        return len(self._coins)

    def __contains__(self, outpoint: Outpoint) -> bool:
        return outpoint.key in self._coins

    def get(self, outpoint: Outpoint) -> Coin | None:
        """The coin at ``outpoint``, or None when absent/spent."""
        value = self._coins.get(outpoint.key)
        return None if value is None else Coin.from_value(value)

    def add(self, outpoint: Outpoint, coin: Coin) -> None:
        """Create a coin; re-creating an existing outpoint is a logic error."""
        addr, amount = coin.output.addr, coin.output.amount
        self.create(outpoint.key, addr, amount, coin.created_height, coin.maturity_height)

    def create(self, key: bytes, addr: bytes, amount: int, created: int, maturity: int) -> None:
        """:meth:`add` by :func:`outpoint_key` and fields, building no object."""
        value = (addr, amount, created, maturity)
        if self._coins.setdefault(key, value) is not value:
            raise DoubleSpend(f"outpoint {key.hex()} already exists")

    def spend(self, outpoint: Outpoint) -> Coin:
        """Remove and return the coin at ``outpoint``; raises when missing."""
        try:
            return Coin.from_value(self._coins.pop(outpoint.key))
        except KeyError:
            raise DoubleSpend(f"outpoint {outpoint.key.hex()} is unknown or spent")

    def balance_of(self, addr: bytes) -> int:
        """Total coins locked to ``addr``."""
        return sum(amount for owner, amount, _, _ in self._coins.values() if owner == addr)

    def coins_of(self, addr: bytes) -> list[tuple[Outpoint, Coin]]:
        """All coins locked to ``addr`` (outpoint order unspecified)."""
        return [
            (Outpoint.from_key(key), Coin.from_value(value))
            for key, value in self._coins.items()
            if value[0] == addr
        ]

    def total_supply(self) -> int:
        """Sum of all unspent amounts."""
        return sum(value[1] for value in self._coins.values())

    def items(self):
        """Iterate over ``(outpoint, coin)`` pairs."""
        for key, value in self._coins.items():
            yield Outpoint.from_key(key), Coin.from_value(value)

    def entries(self) -> list[tuple[bytes, tuple]]:
        """The stored ``(key, value)`` pairs in key order, i.e. outpoint order."""
        return sorted(self._coins.items())

    def copy(self) -> "UTXOSet":
        """Copy-on-write snapshot (coins are immutable values)."""
        clone = UTXOSet()
        clone._coins = self._coins.copy()
        return clone
