"""Deterministic workload generators for examples and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.scenarios.harness import SidechainHandle, ZendooHarness


@dataclass(frozen=True)
class Account:
    """A named user with keys on both chains."""

    name: str
    keypair: KeyPair

    @classmethod
    def named(cls, name: str) -> "Account":
        return cls(name=name, keypair=KeyPair.from_seed(f"account/{name}"))


def make_accounts(count: int, prefix: str = "user") -> list[Account]:
    """``count`` deterministic accounts."""
    return [Account.named(f"{prefix}-{i}") for i in range(count)]


def _det_choice(seed: bytes, tag: bytes, bound: int) -> int:
    """A deterministic pseudo-random integer in [0, bound)."""
    digest = hash_bytes(seed + tag, b"workload")
    return int.from_bytes(digest[:8], "little") % bound


class PaymentWorkload:
    """Random-looking but fully deterministic sidechain payment traffic."""

    def __init__(
        self,
        harness: ZendooHarness,
        handle: SidechainHandle,
        accounts: list[Account],
        seed: bytes = b"payments",
    ) -> None:
        self.harness = harness
        self.handle = handle
        self.accounts = accounts
        self.seed = seed
        self._step = 0

    def fund_all(self, amount: int) -> None:
        """Forward-transfer ``amount`` to every account (one FT each)."""
        for account in self.accounts:
            self.harness.forward_transfer(self.handle, account.keypair, amount)

    def submit_payments(self, count: int, max_amount: int = 1000) -> int:
        """Submit up to ``count`` payments between random account pairs.

        Returns the number actually submitted (an account without funds is
        skipped).
        """
        submitted = 0
        for _ in range(count):
            self._step += 1
            tag = self._step.to_bytes(8, "little")
            sender = self.accounts[_det_choice(self.seed, tag + b"s", len(self.accounts))]
            receiver = self.accounts[_det_choice(self.seed, tag + b"r", len(self.accounts))]
            if sender.name == receiver.name:
                continue
            wallet = self.harness.wallet(self.handle, sender.keypair)
            amount = 1 + _det_choice(self.seed, tag + b"a", max_amount)
            if wallet.balance() < amount:
                continue
            wallet.pay(receiver.keypair.address, amount)
            submitted += 1
        return submitted
