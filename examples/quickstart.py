#!/usr/bin/env python3
"""Quickstart: the complete Zendoo lifecycle in ~60 lines.

Creates a simulated mainchain, registers a Latus sidechain, forward-
transfers coins to it, pays inside the sidechain, withdraws back to the
mainchain through a SNARK-proven withdrawal certificate, and shows the
safeguard accounting at every step.

Run:  python examples/quickstart.py
"""

from repro.crypto import KeyPair
from repro.scenarios import ZendooHarness


def main() -> None:
    print("=== Zendoo quickstart ===\n")

    # --- a mainchain with a miner -----------------------------------------
    harness = ZendooHarness()
    harness.mine(2)
    print(f"mainchain at height {harness.mc.height}")

    # --- register a Latus sidechain (§4.2) --------------------------------
    sc = harness.create_sidechain("quickstart", epoch_len=5, submit_len=2)
    print(
        f"sidechain {sc.ledger_id.hex()[:16]}… registered "
        f"(epoch_len={sc.config.epoch_len}, submit_len={sc.config.submit_len})"
    )

    # --- forward transfer: mainchain -> sidechain (§4.1.1) ----------------
    alice = KeyPair.from_seed("alice")
    bob = KeyPair.from_seed("bob")
    harness.forward_transfer(sc, alice, 1_000_000)
    harness.run_epochs(sc, 1)
    print(f"\nforward transfer: alice now holds {harness.wallet(sc, alice).balance()} on the SC")
    print(f"mainchain-side safeguard balance: {harness.mc.state.cctp.balance(sc.ledger_id)}")
    cert = sc.node.certificates[-1]
    print(
        f"epoch {cert.epoch_id} certificate adopted: quality={cert.quality}, "
        f"proof={cert.proof.size_bytes} bytes (constant)"
    )

    # --- sidechain payment (§5.3.1) ----------------------------------------
    harness.wallet(sc, alice).pay(bob.address, 250_000)
    harness.mine(1)
    print(f"\nsidechain payment: bob holds {harness.wallet(sc, bob).balance()}")

    # --- backward transfer: sidechain -> mainchain (§5.5.3) -----------------
    payout = KeyPair.from_seed("payout")
    harness.wallet(sc, bob).withdraw(payout.address, 250_000)
    harness.run_epochs(sc, 1)
    schedule = sc.config.schedule
    harness.mine_until(schedule.ceasing_height(sc.node.epoch_id - 1) + 1)
    print(
        f"backward transfer matured: payout address holds "
        f"{harness.mc.state.utxos.balance_of(payout.address)} on the mainchain"
    )
    print(f"safeguard balance after withdrawal: {harness.mc.state.cctp.balance(sc.ledger_id)}")

    # --- what the mainchain verified ----------------------------------------
    proofs = len(sc.node.certificates)
    print(
        f"\nthe mainchain verified {proofs} constant-size certificate proofs; "
        f"it never saw a single sidechain transaction."
    )


if __name__ == "__main__":
    main()
