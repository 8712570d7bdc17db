"""Unit tests for the mainchain UTXO set (repro.mainchain.utxo)."""

import pytest

from repro.errors import DoubleSpend
from repro.mainchain.utxo import Coin, Outpoint, TxOutput, UTXOSet


def op(n: int) -> Outpoint:
    return Outpoint(txid=bytes([n]) * 32, index=0)


def coin(addr=b"\xaa" * 32, amount=10, height=0, maturity=0) -> Coin:
    return Coin(
        output=TxOutput(addr=addr, amount=amount),
        created_height=height,
        maturity_height=maturity,
    )


class TestUTXOSet:
    def test_add_get_spend(self):
        utxos = UTXOSet()
        utxos.add(op(1), coin(amount=5))
        assert op(1) in utxos
        assert utxos.get(op(1)).output.amount == 5
        spent = utxos.spend(op(1))
        assert spent.output.amount == 5
        assert op(1) not in utxos

    def test_double_add_rejected(self):
        utxos = UTXOSet()
        utxos.add(op(1), coin())
        with pytest.raises(DoubleSpend):
            utxos.add(op(1), coin())

    def test_spend_missing_rejected(self):
        with pytest.raises(DoubleSpend):
            UTXOSet().spend(op(1))

    def test_double_spend_rejected(self):
        utxos = UTXOSet()
        utxos.add(op(1), coin())
        utxos.spend(op(1))
        with pytest.raises(DoubleSpend):
            utxos.spend(op(1))

    def test_balance_and_coins_of(self):
        utxos = UTXOSet()
        utxos.add(op(1), coin(addr=b"\x01" * 32, amount=5))
        utxos.add(op(2), coin(addr=b"\x01" * 32, amount=7))
        utxos.add(op(3), coin(addr=b"\x02" * 32, amount=100))
        assert utxos.balance_of(b"\x01" * 32) == 12
        assert len(utxos.coins_of(b"\x01" * 32)) == 2
        assert utxos.total_supply() == 112

    def test_copy_independent(self):
        utxos = UTXOSet()
        utxos.add(op(1), coin())
        clone = utxos.copy()
        clone.spend(op(1))
        assert op(1) in utxos
        assert op(1) not in clone

    def test_len(self):
        utxos = UTXOSet()
        assert len(utxos) == 0
        utxos.add(op(1), coin())
        assert len(utxos) == 1

    def test_entries_are_in_outpoint_order(self):
        """Keys end in the index as big-endian bytes: index 255 sorts before
        256 (little-endian would put 256, low byte 0, first)."""
        utxos = UTXOSet()
        outpoints = [Outpoint(bytes([t]) * 32, i) for t in (2, 1) for i in (256, 255, 1)]
        for n, outpoint in enumerate(outpoints):
            utxos.add(outpoint, coin(amount=n))
        stored = [Outpoint.from_key(key) for key, _ in utxos.entries()]
        assert stored == sorted(outpoints, key=lambda o: (o.txid, o.index))
        assert dict(utxos.items()) == {o: coin(amount=n) for n, o in enumerate(outpoints)}


class TestMaturity:
    def test_spendable_at(self):
        c = coin(maturity=10)
        assert not c.spendable_at(9)
        assert c.spendable_at(10)

    def test_zero_maturity_always_spendable(self):
        assert coin().spendable_at(0)
