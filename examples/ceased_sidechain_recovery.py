#!/usr/bin/env python3
"""Disaster recovery: a sidechain dies, users keep their coins.

Walks the paper's two defence mechanisms end to end:

1. **Ceasing (Def. 4.2)** — the sidechain's maintainers stop submitting
   withdrawal certificates; at the deterministic deadline the mainchain
   marks it ceased and refuses further certificates.
2. **Ceased Sidechain Withdrawal (Def. 4.6 / §5.5.3.3)** — a user proves,
   against the *last committed* MST root, that they own an unspent output,
   and is paid directly on the mainchain; the nullifier prevents claiming
   twice.
3. **mst_delta (Appendix A)** — even if the dying sidechain had withheld
   its final state (a data-availability attack), the user can verify their
   coin untouched across the published deltas.

Run:  python examples/ceased_sidechain_recovery.py
"""

from repro.core.cctp import SidechainStatus
from repro.crypto import KeyPair
from repro.errors import ZendooError
from repro.latus.mst_delta import verify_unspent_across_epochs
from repro.scenarios import ZendooHarness


def main() -> None:
    print("=== ceased-sidechain recovery ===\n")
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("doomed", epoch_len=4, submit_len=2)
    carol = KeyPair.from_seed("carol")
    dan = KeyPair.from_seed("dan")
    harness.forward_transfer(sc, carol, 80_000)
    harness.forward_transfer(sc, dan, 20_000)
    harness.run_epochs(sc, 2)
    print(
        f"sidechain healthy: {len(sc.node.certificates)} certificates, "
        f"balance {harness.mc.state.cctp.balance(sc.ledger_id)}"
    )
    carol_coin = harness.wallet(sc, carol).utxos()[0]
    dan_coin = harness.wallet(sc, dan).utxos()[0]

    # --- the sidechain maintainers vanish -----------------------------------
    sc.node.auto_submit_certificates = False
    schedule = sc.config.schedule
    deadline = schedule.ceasing_height(sc.node.epoch_id)
    print(f"\nmaintainers stop certifying; ceasing deadline is MC height {deadline}")
    harness.mine_until(deadline)
    status = harness.mc.state.cctp.status(sc.ledger_id)
    print(f"at height {harness.mc.height}: sidechain status = {status.value}")
    assert status is SidechainStatus.CEASED

    # --- the mst_delta ownership argument ------------------------------------
    anchor = sc.node.anchors[max(sc.node.anchors)]
    proof = anchor.state_snapshot.mst.prove(carol_coin)
    deltas_since = []  # no certificates were published after the anchor
    owned = verify_unspent_across_epochs(
        carol_coin, proof, anchor.mst_root, deltas_since
    )
    print(f"\ncarol proves her coin unspent against the last committed root: {owned}")

    # --- ceased sidechain withdrawals -----------------------------------------
    for name, user, coin in (("carol", carol, carol_coin), ("dan", dan, dan_coin)):
        csw = harness.make_csw(sc, coin, user, user.address)
        harness.submit_csw(csw)
        harness.mine(1)
        print(
            f"{name} recovered {harness.mc.state.utxos.balance_of(user.address)} "
            f"on the mainchain via CSW (nullifier {csw.nullifier.hex()[:12]}…)"
        )

    print(f"\nremaining sidechain balance: {harness.mc.state.cctp.balance(sc.ledger_id)}")

    # --- double-claim attempt ---------------------------------------------------
    replay = harness.make_csw(sc, carol_coin, carol, carol.address)
    try:
        state = harness.mc.chain.state.copy()
        state.cctp.process_csw(replay, harness.mc.height + 1)
        print("replay accepted (BUG)")
    except ZendooError as exc:
        print(f"carol tries to claim again: rejected ({type(exc).__name__})")


if __name__ == "__main__":
    main()
