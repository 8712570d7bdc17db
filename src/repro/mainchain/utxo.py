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


@dataclass(frozen=True)
class Outpoint:
    """Reference to the ``index``-th output of transaction ``txid``."""

    txid: bytes
    index: int

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

    def spendable_at(self, height: int) -> bool:
        """True when the coin may be spent in a block at ``height``."""
        return height >= self.maturity_height


class UTXOSet:
    """A mutable map from outpoints to coins.

    Backed by a layered copy-on-write dict so the per-block state snapshot
    costs O(coins touched since the last snapshot), not O(UTXO set).
    """

    def __init__(self) -> None:
        self._coins: CowDict = CowDict()

    def __len__(self) -> int:
        return len(self._coins)

    def __contains__(self, outpoint: Outpoint) -> bool:
        return outpoint in self._coins

    def get(self, outpoint: Outpoint) -> Coin | None:
        """The coin at ``outpoint``, or None when absent/spent."""
        return self._coins.get(outpoint)

    def add(self, outpoint: Outpoint, coin: Coin) -> None:
        """Create a coin; re-creating an existing outpoint is a logic error."""
        if outpoint in self._coins:
            raise DoubleSpend(f"outpoint {outpoint.txid.hex()[:16]}:{outpoint.index} already exists")
        self._coins[outpoint] = coin

    def spend(self, outpoint: Outpoint) -> Coin:
        """Remove and return the coin at ``outpoint``; raises when missing."""
        try:
            return self._coins.pop(outpoint)
        except KeyError:
            raise DoubleSpend(
                f"outpoint {outpoint.txid.hex()[:16]}:{outpoint.index} is unknown or spent"
            )

    def balance_of(self, addr: bytes) -> int:
        """Total coins locked to ``addr``."""
        return sum(c.output.amount for c in self._coins.values() if c.output.addr == addr)

    def coins_of(self, addr: bytes) -> list[tuple[Outpoint, Coin]]:
        """All coins locked to ``addr`` (outpoint order unspecified)."""
        return [
            (op, coin)
            for op, coin in self._coins.items()
            if coin.output.addr == addr
        ]

    def total_supply(self) -> int:
        """Sum of all unspent amounts."""
        return sum(c.output.amount for c in self._coins.values())

    def items(self):
        """Iterate over ``(outpoint, coin)`` pairs."""
        return self._coins.items()

    def copy(self) -> "UTXOSet":
        """Copy-on-write snapshot (coins are immutable values)."""
        clone = UTXOSet()
        clone._coins = self._coins.copy()
        return clone
