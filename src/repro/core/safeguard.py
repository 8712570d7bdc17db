"""The withdrawal safeguard (paper §4.1.2.2).

For each sidechain the mainchain maintains a balance: forward transfers
credit it, withdrawal certificates and ceased-sidechain withdrawals debit
it, and no debit may exceed the balance.  "Even in the case of total
corruption or a maliciously constructed sidechain, an adversary cannot mint
coins out of thin air."
"""

from __future__ import annotations

from repro.core.cow import CowDict
from repro.errors import SafeguardViolation, UnknownSidechain


class Safeguard:
    """Per-sidechain balance bookkeeping with the invariant ``balance >= 0``."""

    def __init__(self) -> None:
        self._balances: CowDict = CowDict()

    def open(self, ledger_id: bytes) -> None:
        """Start tracking a newly created sidechain at balance zero."""
        self._balances.setdefault(ledger_id, 0)

    def balance(self, ledger_id: bytes) -> int:
        """Current balance of a sidechain."""
        try:
            return self._balances[ledger_id]
        except KeyError:
            raise UnknownSidechain(f"no safeguard entry for {ledger_id.hex()[:16]}")

    def deposit(self, ledger_id: bytes, amount: int) -> None:
        """Credit a forward transfer."""
        if amount < 0:
            raise SafeguardViolation("deposit amount must be non-negative")
        self._balances[ledger_id] = self.balance(ledger_id) + amount

    def withdraw(self, ledger_id: bytes, amount: int) -> None:
        """Debit a certificate payout or CSW; raises when over-drawing."""
        if amount < 0:
            raise SafeguardViolation("withdrawal amount must be non-negative")
        balance = self.balance(ledger_id)
        if amount > balance:
            raise SafeguardViolation(
                f"withdrawal of {amount} exceeds sidechain balance {balance}"
            )
        self._balances[ledger_id] = balance - amount

    def refund(self, ledger_id: bytes, amount: int) -> None:
        """Re-credit a superseded certificate's withdrawal."""
        if amount < 0:
            raise SafeguardViolation("refund amount must be non-negative")
        self._balances[ledger_id] = self.balance(ledger_id) + amount

    def copy(self) -> "Safeguard":
        """Copy-on-write snapshot (used when forking validation contexts).

        O(dirty entries since the last snapshot), not O(sidechains): both
        instances share the sealed balance layers and diverge lazily.
        """
        clone = Safeguard()
        clone._balances = self._balances.copy()
        return clone
