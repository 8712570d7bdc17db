"""Client-side load generation: seeded, deterministic, outside the timed clock.

Everything here plays the *users* of the system — wallets that build and
sign transactions, a mainchain funder that issues forward transfers — and
runs while the run clock is paused.  ``--seed`` reaches the program only
through what these generators emit: amounts, receivers, which block of an
epoch carries how many forward transfers.  The amount of work per epoch is
the same for every seed (FT counts are a seeded permutation of a fixed
multiset), so seeds vary the inputs without varying the size of the run.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.transfers import BackwardTransfer, ForwardTransfer
from repro.crypto.keys import KeyPair
from repro.latus.transactions import (
    ft_output,
    pack_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.mainchain.transaction import CoinTransaction, TransactionBuilder
from repro.mainchain.utxo import Outpoint


#: A ring account's first coin; payments and top-ups are far smaller, so the
#: account always pays from (the change of) this one.
FUNDING = 1_000_000


class McWallet:
    """Tracks the mainchain coins of one key by reading mined blocks."""

    def __init__(self, keypair: KeyPair, coinbase_maturity: int) -> None:
        self.keypair = keypair
        self._coinbase_maturity = coinbase_maturity
        #: (outpoint, amount, first height at which it may be spent)
        self._coins: deque[tuple[Outpoint, int, int]] = deque()

    def note_block(self, block) -> None:
        """Record every output of ``block`` that pays this wallet."""
        for tx in block.transactions:
            if not isinstance(tx, CoinTransaction):
                continue
            lock = self._coinbase_maturity if tx.is_coinbase else 0
            for index, output in enumerate(tx.outputs):
                if output.addr == self.keypair.address:
                    self._coins.append(
                        (
                            Outpoint(txid=tx.txid, index=index),
                            output.amount,
                            max(block.height + 1, block.height + lock),
                        )
                    )

    def take(self, next_height: int, at_least: int) -> tuple[Outpoint, int]:
        """Remove and return a coin spendable in the block at ``next_height``."""
        for _ in range(len(self._coins)):
            outpoint, amount, spendable = self._coins.popleft()
            if spendable <= next_height and amount >= at_least:
                return outpoint, amount
            self._coins.append((outpoint, amount, spendable))
        raise RuntimeError("load generator ran out of mainchain coins")

    def transfer(
        self,
        next_height: int,
        transfers: list[ForwardTransfer],
        split: tuple[int, int] | None = None,
    ) -> CoinTransaction:
        """One signed MC transaction carrying ``transfers`` (change comes back).

        ``split=(n, amount)`` adds ``n`` outputs of ``amount`` to this wallet,
        to fan one coin out into many.
        """
        need = sum(ft.amount for ft in transfers) + (split[0] * split[1] if split else 0)
        outpoint, amount = self.take(next_height, need)
        builder = TransactionBuilder().spend(outpoint, self.keypair, amount)
        for ft in transfers:
            builder.forward_transfer(ft.ledger_id, ft.receiver_metadata, ft.amount)
        if split:
            for _ in range(split[0]):
                builder.pay(self.keypair.address, split[1])
        return builder.change_to(self.keypair.address).build()


@dataclass
class BlockLoad:
    """What the clients hand the system before one mainchain block."""

    mc_txs: list = field(default_factory=list)
    sc_txs: list = field(default_factory=list)
    #: Amount sent across by this block's forward transfers.
    ft_amount: int = 0


@dataclass
class RoundTrip:
    """One tagged FT -> pay -> BT -> payout journey (one per epoch)."""

    epoch: int
    amount: int
    mc_receiver: bytes
    submitted_at: float | None = None
    spendable_at: float | None = None


class LatusClients:
    """The wallets of one Latus sidechain: a payment ring plus a tagged pair.

    Every block, ``payers`` ring accounts (rotating through the ring) pay the
    next account once, one input and two outputs.  The tagged pair runs one
    cross-chain round trip per epoch: block 0 carries a forward transfer to
    ``tag``; in block 1 ``tag`` pays it on to ``exit``; in block 2 ``exit``
    withdraws it to a fresh mainchain address.
    """

    def __init__(self, seed: int, ledger_id: bytes, mst_depth: int, accounts: int) -> None:
        self._rng = random.Random(seed)
        self._ledger_id = ledger_id
        self._depth = mst_depth
        self.ring = [KeyPair.from_seed(f"bench/ring-{i}") for i in range(accounts)]
        self.tag = KeyPair.from_seed("bench/tag")
        self.exit = KeyPair.from_seed("bench/exit")
        self._coins: dict[bytes, list[Utxo]] = {
            kp.address: [] for kp in (*self.ring, self.tag, self.exit)
        }
        self._nonce = 0
        #: MST slots of every output these wallets created and have not yet
        #: seen spent; all coins of the sidechain come from here, so the
        #: clients never have to read the node's state.
        self._occupied: set[int] = set()
        self._freed: list[int] = []
        self._cursor = 0
        self.trips: dict[int, RoundTrip] = {}
        self._tag_coin: Utxo | None = None
        self._exit_coin: Utxo | None = None

    # -- helpers -------------------------------------------------------------

    def keys(self) -> list[KeyPair]:
        return [*self.ring, self.tag, self.exit]

    def begin_block(self) -> None:
        # slots freed by the previous block's spends are reusable from now on
        self._occupied.difference_update(self._freed)
        self._freed.clear()

    def _claim(self, utxo: Utxo) -> bool:
        position = utxo.position(self._depth)
        if position in self._occupied:
            return False
        self._occupied.add(position)
        return True

    def _spend(self, utxo: Utxo) -> None:
        self._freed.append(utxo.position(self._depth))

    def _output(self, owner: bytes, amount: int) -> Utxo:
        """A new output whose MST slot is free — wallets retry on collision."""
        while True:
            self._nonce += 1
            utxo = Utxo(
                addr=address_to_field(owner),
                amount=amount,
                nonce=derive_nonce(b"bench/out", self._nonce.to_bytes(8, "little")),
            )
            if self._claim(utxo):
                return utxo

    def _forward_transfer(self, receiver: KeyPair, amount: int) -> ForwardTransfer:
        """A forward transfer whose minted output lands in a free MST slot."""
        metadata = pack_receiver_metadata(receiver.address, receiver.address)
        while True:
            ft = ForwardTransfer(self._ledger_id, metadata, amount)
            utxo = ft_output(ft, receiver.address)
            if self._claim(utxo):
                self._coins[receiver.address].append(utxo)
                return ft
            amount += 1

    # -- per-block load ------------------------------------------------------


    def ft_schedule(self, counts: tuple[int, ...]) -> list[int]:
        """This epoch's forward transfers per block: a seeded permutation."""
        schedule = list(counts)
        self._rng.shuffle(schedule)
        return schedule

    def block(
        self,
        epoch: int,
        index: int,
        payers: int,
        top_ups: int,
        funder: McWallet,
        next_height: int,
        fund: int = 0,
    ) -> BlockLoad:
        """Everything the clients submit before block ``index`` of ``epoch``.

        ``fund`` ring accounts that have no coin yet receive their first one.
        """
        self.begin_block()
        load = BlockLoad()
        rng = self._rng
        unfunded = [kp for kp in self.ring if not self._coins[kp.address]]
        fts = [self._forward_transfer(kp, FUNDING) for kp in unfunded[:fund]]

        for _ in range(payers):
            i = self._cursor % len(self.ring)
            self._cursor += 1
            sender, receiver = self.ring[i], self.ring[(i + 1) % len(self.ring)]
            coins = self._coins[sender.address]
            coin = max(coins, key=lambda u: u.amount)
            coins.remove(coin)
            self._spend(coin)
            amount = rng.randrange(1, 1000)
            paid = self._output(receiver.address, amount)
            change = self._output(sender.address, coin.amount - amount)
            load.sc_txs.append(sign_payment([(coin, sender)], [paid, change]))
            # spendable from the next block on
            self._coins[receiver.address].append(paid)
            coins.append(change)

        for _ in range(top_ups):
            receiver = rng.choice(self.ring)
            fts.append(self._forward_transfer(receiver, rng.randrange(10_000, 20_000)))

        if index == 0:
            trip = RoundTrip(
                epoch=epoch,
                amount=rng.randrange(50_000, 60_000),
                mc_receiver=KeyPair.from_seed(f"bench/mc-receiver-{epoch}").address,
            )
            ft = self._forward_transfer(self.tag, trip.amount)
            trip.amount = ft.amount
            self._tag_coin = self._coins[self.tag.address].pop()
            self.trips[epoch] = trip
            fts.append(ft)
        elif index == 1:
            coin = self._tag_coin
            self._spend(coin)
            self._exit_coin = self._output(self.exit.address, coin.amount)
            load.sc_txs.append(sign_payment([(coin, self.tag)], [self._exit_coin]))
        elif index == 2:
            trip = self.trips[epoch]
            self._spend(self._exit_coin)
            load.sc_txs.append(
                sign_backward_transfer(
                    [(self._exit_coin, self.exit)],
                    [BackwardTransfer(receiver_addr=trip.mc_receiver, amount=trip.amount)],
                )
            )

        if fts:
            load.mc_txs.append(funder.transfer(next_height, fts))
            load.ft_amount = sum(ft.amount for ft in fts)
        return load
