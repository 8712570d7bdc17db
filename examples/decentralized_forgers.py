#!/usr/bin/env python3
"""A genuinely decentralized Latus deployment: one node per stakeholder.

Previous examples run all forging keys inside a single node for
convenience.  Here each stakeholder runs their *own* node holding only
their own key (``ZendooHarness.add_node``): blocks are forged by whoever
wins the slot lottery, gossiped over the harness's network in the wire
encoding, and fully re-validated by every peer (leader check, commitment
proofs, state re-execution, digest comparison).  ``harness.converge``
then checks that all nodes hold the same sidechain tip and state digest —
the determinism §5.3's MC-defined transactions are designed for.

Run:  python examples/decentralized_forgers.py
"""

from collections import Counter

from repro.crypto import KeyPair
from repro.latus.params import LatusParams
from repro.latus.transactions import pack_receiver_metadata
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import TransactionBuilder
from repro.scenarios import ZendooHarness


def main() -> None:
    print("=== decentralized forgers: one node per stakeholder ===\n")
    harness = ZendooHarness(
        MainchainParams(pow_zero_bits=4, coinbase_maturity=1),
        miner_seed="decentralized/miner",
    )
    miner, mc = harness.miner, harness.mc
    stakers = [KeyPair.from_seed(f"decentralized/staker-{i}") for i in range(4)]
    harness.mine(2)
    sc = harness.create_sidechain(
        "decentralized",
        epoch_len=5,
        submit_len=2,
        latus_params=LatusParams(mst_depth=12, slots_per_epoch=6),
        creator=KeyPair.from_seed("decentralized/creator"),
        proving_strategy="batched",
    )
    for i, staker in enumerate(stakers):
        harness.add_node(sc, f"node-{i}", forger_keys=[staker], proving_strategy="batched")
    print(f"{len(sc.nodes)} nodes started (creator + {len(stakers)} stakeholders)")

    # fund the stakeholders with uneven stake
    amounts = (40_000, 30_000, 20_000, 10_000)
    for staker, amount in zip(stakers, amounts):
        for outpoint, coin in mc.state.utxos.coins_of(miner.address):
            if coin.spendable_at(mc.height + 1):
                mc.submit_transaction(
                    TransactionBuilder()
                    .spend(outpoint, miner, coin.output.amount)
                    .forward_transfer(
                        sc.ledger_id,
                        pack_receiver_metadata(staker.address, staker.address),
                        amount,
                    )
                    .change_to(miner.address)
                    .build()
                )
                break
        harness.mine(1)
    print(f"stakeholders funded with {amounts}")

    height = sc.node.height
    harness.mine(25)
    resyncs = harness.converge(sc)
    print(
        f"\n25 more MC blocks: {sc.node.height - height} SC blocks forged, "
        f"all nodes convergent ({resyncs} resyncs)"
    )

    print("\nblocks forged per node (stake-weighted lottery):")
    owner = {addr: name for name, node in sc.nodes.items() for addr in node.forgers}
    for name, count in sorted(Counter(owner[b.forger_addr] for b in sc.node.blocks).items()):
        print(f"  {name:<12} {count:>3} blocks")

    entry = mc.state.cctp.entry(sc.ledger_id)
    print(
        f"\nwithdrawal epochs certified on the MC: {sorted(entry.certificates)} "
        f"(one node proved each epoch, every other node checked its certificate)"
    )
    print(f"final convergent state digest: {sc.node.state.digest():#x}"[:60] + "…")
    for node in sc.nodes.values():
        node.close()


if __name__ == "__main__":
    main()
