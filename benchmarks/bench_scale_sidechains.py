"""Many-sidechains scale-out workload (PR 7): per-block cost vs registry size.

Registers ``SMALL_N`` and ``LARGE_N`` sidechains on two otherwise identical
mainchains, then mines a run of blocks that each touch a small constant
number of sidechains (forward transfers to the same ``TOUCHED`` ledger ids
every block).  With copy-on-write state snapshots, the deadline-indexed
ceasing scan and the incremental SCTxsCommitment builder, the per-block wall
time should be governed by the transactions in the block — not by how many
sidechains exist.  The gate is relative (machine-adaptive): the large
registry may cost at most ``MAX_RATIO``x the small one per block.

Correctness rides along: every block header's commitment on the large chain
is recomputed from an emptied leaf cache (the from-scratch rebuild)
and must match byte-for-byte, and the chain digest over all block hashes is
recomputed from those naive roots.

Run directly (``python -m benchmarks.bench_scale_sidechains``) or through
``python -m benchmarks.smoke``, which records the report to
``BENCH_pr7.json``.
"""

from __future__ import annotations

import hashlib
import statistics
import time

from repro.core.bootstrap import SidechainConfig
from repro.core.commitment import (
    clear_leaf_cache,
    leaf_cache_size,
)
from repro.core.transfers import derive_ledger_id
from repro.crypto.keys import KeyPair
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import (
    Outpoint,
    SidechainDeclarationTx,
    TransactionBuilder,
)
from repro.mainchain.validation import compute_sc_txs_commitment
from repro.snark import proving
from repro.snark.circuit import Circuit

SMALL_N = 100
LARGE_N = 1000
TOUCHED = 4  # sidechains each measured block actually touches
MEASURED_BLOCKS = 25
DECLS_PER_BLOCK = 200
# epochs far beyond the bench horizon: no submission windows open and no
# ceasing deadlines fire while we measure, so every block does the same work
EPOCH_LEN = 100_000
MAX_RATIO = 3.0


class _Permissive(Circuit):
    """Shared verification key for all bench sidechains (never exercised)."""

    circuit_id = "bench/scale-sidechains"

    def synthesize(self, b, public, witness):
        b.alloc_publics(public)


_, _VK = proving.setup(_Permissive())


def _config(index: int, start_block: int) -> SidechainConfig:
    return SidechainConfig(
        ledger_id=derive_ledger_id(f"bench-scale/{index}"),
        start_block=start_block,
        epoch_len=EPOCH_LEN,
        submit_len=2,
        wcert_vk=_VK,
    )


class _BenchChain:
    """A mainchain plus just enough wallet to spend miner coinbases."""

    def __init__(self) -> None:
        self.node = MainchainNode(
            MainchainParams(
                pow_zero_bits=0,
                coinbase_maturity=1,
                max_block_transactions=DECLS_PER_BLOCK + 2,
            )
        )
        self.miner = KeyPair.from_seed("bench-scale/miner")
        self._coins: list[tuple[Outpoint, int]] = []

    def mine(self):
        block = self.node.mine_block(self.miner.address)
        coinbase = block.transactions[0]
        self._coins.append(
            (Outpoint(txid=coinbase.txid, index=0), coinbase.outputs[0].amount)
        )
        return block

    def register(self, count: int) -> list[bytes]:
        """Declare ``count`` sidechains, batched into full blocks."""
        ids = []
        registered = 0
        while registered < count:
            batch = min(DECLS_PER_BLOCK, count - registered)
            start_block = self.node.height + 2
            for i in range(registered, registered + batch):
                config = _config(i, start_block)
                self.node.submit_transaction(SidechainDeclarationTx(config=config))
                ids.append(config.ledger_id)
            self.mine()
            registered += batch
        self.mine()  # cross every start_block so transfers are accepted
        return ids

    def touch_and_mine(self, ledger_ids: list[bytes]) -> float:
        """One block forwarding coins to ``ledger_ids``; returns its wall time."""
        outpoint, amount = self._coins.pop(0)
        builder = TransactionBuilder().spend(outpoint, self.miner, amount)
        for ledger_id in ledger_ids:
            builder.forward_transfer(ledger_id, b"\x42" * 64, 10)
        self.node.submit_transaction(
            builder.change_to(self.miner.address).build()
        )
        start = time.perf_counter()
        self.mine()
        return time.perf_counter() - start


def _run_chain(n: int) -> dict:
    chain = _BenchChain()
    chain.mine()
    chain.mine()
    ids = chain.register(n)
    touched = ids[:TOUCHED]
    walls = [chain.touch_and_mine(touched) for _ in range(MEASURED_BLOCKS)]
    state = chain.node.state
    return {
        "registered": len(state.cctp.sidechains),
        "height": chain.node.height,
        "touched_per_block": TOUCHED,
        "measured_blocks": MEASURED_BLOCKS,
        "per_block_wall_s": statistics.median(walls),
        "total_wall_s": sum(walls),
        "chain": chain,
    }


def _naive_parity(node: MainchainNode) -> dict:
    """Recompute every header commitment without the leaf cache and digest
    the chain both ways.  Covers ALL blocks (registration bursts included),
    not a sample."""
    blocks = node.chain.active_chain()
    mismatches = 0
    incremental_digest = hashlib.sha256()
    naive_digest = hashlib.sha256()
    for block in blocks:
        clear_leaf_cache()
        naive = compute_sc_txs_commitment(block.transactions)
        if naive != block.header.sc_txs_commitment:
            mismatches += 1
        incremental_digest.update(block.header.sc_txs_commitment)
        naive_digest.update(naive)
    return {
        "blocks_checked": len(blocks),
        "commitment_mismatches": mismatches,
        "chain_digests_match": (
            incremental_digest.hexdigest() == naive_digest.hexdigest()
        ),
    }


def run_scale_workload() -> dict:
    """The full workload: small vs large registry, plus the parity audit."""
    clear_leaf_cache()
    _run_chain(8)  # warm global caches (hash and signature memos) for both runs
    small = _run_chain(SMALL_N)
    large = _run_chain(LARGE_N)
    small_chain = small.pop("chain")
    large_chain = large.pop("chain")
    cache_entries = leaf_cache_size()  # before the parity pass clears it
    parity = _naive_parity(large_chain.node)
    parity_small = _naive_parity(small_chain.node)
    ratio = (
        large["per_block_wall_s"] / small["per_block_wall_s"]
        if small["per_block_wall_s"]
        else float("inf")
    )
    return {
        "workload": (
            f"{MEASURED_BLOCKS} blocks touching {TOUCHED} fixed sidechains, "
            f"registry of {SMALL_N} vs {LARGE_N}"
        ),
        "small": small,
        "large": large,
        "per_block_ratio": ratio,
        "max_ratio": MAX_RATIO,
        "leaf_cache_entries": cache_entries,
        "parity_large": parity,
        "parity_small": parity_small,
    }


def scale_checks(scale: dict) -> dict:
    """The BENCH_pr7 gate: flat-ish per-block cost and exact parity."""
    return {
        "scale_registries_populated": (
            scale["small"]["registered"] == SMALL_N
            and scale["large"]["registered"] == LARGE_N
        ),
        # acceptance target: 10x the sidechains costs at most MAX_RATIO x
        # per block when blocks touch a constant number of them
        "scale_per_block_ratio_bounded": scale["per_block_ratio"] <= MAX_RATIO,
        "scale_commitments_match_naive_rebuild": (
            scale["parity_large"]["commitment_mismatches"] == 0
            and scale["parity_small"]["commitment_mismatches"] == 0
        ),
        "scale_chain_digests_match": (
            scale["parity_large"]["chain_digests_match"]
            and scale["parity_small"]["chain_digests_match"]
        ),
        "scale_all_blocks_audited": (
            scale["parity_large"]["blocks_checked"]
            == scale["large"]["height"] + 1
        ),
    }


if __name__ == "__main__":
    import json
    import sys

    report = run_scale_workload()
    checks = scale_checks(report)
    print(json.dumps({"workloads": report, "checks": checks}, indent=2))
    sys.exit(0 if all(checks.values()) else 1)
