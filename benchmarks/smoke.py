"""Benchmark smoke target: ``python -m benchmarks.smoke``.

Runs the Merkle/MST bulk-insert workloads from ``bench_f02_merkle.py`` and
``bench_f09_mst.py`` at small sizes *without* pytest, records wall-time and
mimc compression-count numbers to ``BENCH_pr1.json``, and exits non-zero on
gross regression:

* the batched field-tree workload performing more than 2x the
  distinct-dirty-ancestor compression count it should need;
* the batched MST workload no longer performing fewer compressions than the
  sequential one;
* any batched root diverging from its sequential reference.

It also runs an epoch-proving workload (serial vs process-pool
``EpochProver``) recorded to ``BENCH_pr2.json``, gating on serial/parallel
proof-count and public-input parity plus a wall-time bound (strict ≥2x
speedup at 64 transactions / 4 workers on machines with 4+ cores; on
smaller machines the pool clamps toward serial and the gate is a no-slower
tolerance instead).

It then runs an observability workload (one full harness epoch observed
by the process-wide metrics registry) recorded to ``BENCH_pr3.json``,
gating on snapshot consistency: hash-op counters moved, mainchain and
network layers reported, the ``epoch/prove`` span exists, the JSON and
Prometheus exporters agree on every series, and disabling the registry
does not slow the Merkle hot path down.

It then runs a chaos workload (a three-node deployment driven through a
seeded :class:`~repro.network.FaultPlan` with drops, duplicates, reorders,
a scheduled partition and one crash/restart — twice) recorded to
``BENCH_pr5.json``, gating on post-healing convergence, faults actually
firing, the crashed node recovering, and the two runs producing
byte-identical fault schedules and identical final (height, digest).

Finally it runs the many-sidechains scale-out workload from
``bench_scale_sidechains.py`` (blocks touching a constant number of
sidechains against registries of 100 vs 1000) recorded to
``BENCH_pr7.json``, gating on the machine-adaptive per-block cost ratio
and on the incremental SCTxsCommitment roots and chain digests being
byte-identical to a naive full rebuild.  ``--scale-only`` runs just this
workload (the CI ``bench-scale`` leg).

The storage-durability workload (``BENCH_pr8.json``) times the PR 1 MST
bulk insert with the write-ahead journal attached (gate: <= 1.5x the
store-less run) and a 50-block sidechain restart-from-disk against a full
re-validated peer resync (gate: disk strictly faster).
``--durability-only`` runs just this workload (the CI ``bench-durability``
leg).

The paged-MST soak (``BENCH_pr9.json``, run only under ``--soak-only`` —
the nightly CI ``bench-soak`` leg) gates the PR 9 node-store layer three
ways: byte-identical roots/proofs/epoch certificate bytes across dict and
paged stores at generous and tiny cache sizes; a depth-30 million-UTXO
bulk insert where the paged store must stay under a peak-RSS budget the
dict store measurably exceeds (child processes, ``resource.getrusage``)
at >= 0.5x the dict store's throughput; and a 1000-sidechain WCert flood
that must fully converge in one shared submission window with every
certificate verified through the batched ``ProverPool.map_verify`` path.

Intended as a cheap CI gate for the MiMC/Merkle, prover performance,
observability, robustness, scale-out and durable-storage
layers (see docs/PERFORMANCE.md, docs/OBSERVABILITY.md,
docs/ROBUSTNESS.md and docs/STORAGE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro import observability
from repro.crypto import mimc
from repro.crypto.fixed_merkle import FixedMerkleTree
from repro.crypto.keys import KeyPair
from repro.latus.mst import MerkleStateTree
from repro.latus.proofs import EpochProver
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce

MERKLE_DEPTH = 16
MERKLE_LEAVES = 128
MST_DEPTH = 12
MST_UTXOS = 512
EPOCH_STATE_DEPTH = 8

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_pr1.json"
DEFAULT_OUT_PR2 = Path(__file__).resolve().parent.parent / "BENCH_pr2.json"
DEFAULT_OUT_PR3 = Path(__file__).resolve().parent.parent / "BENCH_pr3.json"
DEFAULT_OUT_PR5 = Path(__file__).resolve().parent.parent / "BENCH_pr5.json"
DEFAULT_OUT_PR7 = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"
DEFAULT_OUT_PR8 = Path(__file__).resolve().parent.parent / "BENCH_pr8.json"
DEFAULT_OUT_PR9 = Path(__file__).resolve().parent.parent / "BENCH_pr9.json"
DEFAULT_OUT_PR10 = Path(__file__).resolve().parent.parent / "BENCH_pr10.json"

# PR 10 adversarial-scenario knobs: PR-time CI runs the quick shape; the
# nightly sweep (REPRO_ADVERSARIAL_FULL=1) widens every scenario's epoch.
ADVERSARIAL_QUICK_TXS = 6
ADVERSARIAL_FULL_TXS = 16

# PR 9 soak knobs.  The leaf count is env-tunable so developers can dry-run
# the soak quickly (REPRO_SOAK_LEAVES=100000); CI's nightly bench-soak leg
# runs the full million.  The RSS budget is expressed as headroom *above the
# measured interpreter baseline* (a no-op child), so it ports across python
# builds: the paged store must fit a million-UTXO depth-30 state in this
# much extra memory, and the dict store must measurably fail to.
SOAK_LEAVES = int(os.environ.get("REPRO_SOAK_LEAVES", "1000000"))
SOAK_DEPTH = 30
SOAK_RSS_HEADROOM_KB = int(os.environ.get("REPRO_SOAK_RSS_HEADROOM_KB", "131072"))

_MIMC_COUNTERS = {
    "compressions": "repro_mimc_compressions_total",
    "permutations": "repro_mimc_permutations_total",
    "cache_hits": "repro_mimc_cache_hits_total",
    "cache_misses": "repro_mimc_cache_misses_total",
}


def _mimc_counts() -> dict:
    """The hash-op counters straight from the metrics registry."""
    registry = observability.registry()
    return {
        key: int(registry.counter(name).value())
        for key, name in _MIMC_COUNTERS.items()
    }


def _measure(fn):
    """Run ``fn`` from a cold cache; time it and diff the hash-op counters."""
    mimc.clear_cache()
    before = _mimc_counts()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    after = _mimc_counts()
    return result, elapsed, {key: after[key] - before[key] for key in before}


def distinct_ancestors(positions, depth: int) -> int:
    """Number of distinct interior nodes on the paths of ``positions``."""
    count = 0
    frontier = set(positions)
    for _ in range(depth):
        frontier = {p >> 1 for p in frontier}
        count += len(frontier)
    return count


def run_merkle_workload() -> dict:
    """Contiguous bulk insert into the MiMC field tree (bench F2 shape)."""
    updates = [(i, i + 1) for i in range(MERKLE_LEAVES)]

    def sequential():
        tree = FixedMerkleTree(MERKLE_DEPTH)
        for position, value in updates:
            tree.set_leaf(position, value)
        return tree

    def batched():
        tree = FixedMerkleTree(MERKLE_DEPTH)
        tree.set_leaves(updates)
        return tree

    seq_tree, seq_time, seq_stats = _measure(sequential)
    bat_tree, bat_time, bat_stats = _measure(batched)
    expected = distinct_ancestors([p for p, _ in updates], MERKLE_DEPTH)
    return {
        "workload": f"FixedMerkleTree depth={MERKLE_DEPTH}, {MERKLE_LEAVES} contiguous leaves",
        "sequential": {"wall_s": seq_time, **seq_stats},
        "batched": {"wall_s": bat_time, **bat_stats},
        "expected_batched_compressions": expected,
        "wall_speedup": seq_time / bat_time if bat_time else float("inf"),
        "compression_ratio": seq_stats["compressions"] / max(1, bat_stats["compressions"]),
        "roots_match": seq_tree.root == bat_tree.root,
    }


def run_mst_workload() -> dict:
    """Epoch-style bulk UTXO insert into the MST (bench F9 shape)."""
    utxos: list[Utxo] = []
    seen: set[int] = set()
    nonce = 0
    while len(utxos) < MST_UTXOS:
        u = Utxo(addr=1, amount=5, nonce=nonce)
        nonce += 1
        position = u.position(MST_DEPTH)
        if position not in seen:
            seen.add(position)
            utxos.append(u)

    def sequential():
        mst = MerkleStateTree(MST_DEPTH)
        for u in utxos:
            mst.add(u)
        return mst

    def batched():
        mst = MerkleStateTree(MST_DEPTH)
        mst.apply_batch(add=utxos)
        return mst

    seq_mst, seq_time, seq_stats = _measure(sequential)
    bat_mst, bat_time, bat_stats = _measure(batched)
    return {
        "workload": f"MerkleStateTree depth={MST_DEPTH}, {MST_UTXOS} utxos",
        "sequential": {"wall_s": seq_time, **seq_stats},
        "batched": {"wall_s": bat_time, **bat_stats},
        "expected_batched_ancestors": distinct_ancestors(seen, MST_DEPTH),
        "wall_speedup": seq_time / bat_time if bat_time else float("inf"),
        "compression_ratio": seq_stats["compressions"] / max(1, bat_stats["compressions"]),
        "roots_match": seq_mst.root == bat_mst.root,
    }


def _payment_chain(count: int) -> tuple[LatusState, list]:
    """A fresh state funding ``count`` chained self-payments for one key."""
    keypair = KeyPair.from_seed("bench-epoch")
    state = LatusState(EPOCH_STATE_DEPTH)
    current = Utxo(
        addr=address_to_field(keypair.address),
        amount=1000,
        nonce=derive_nonce(b"benchmint", (0).to_bytes(8, "little")),
    )
    state.mst.add(current)
    txs = []
    for i in range(count):
        nxt = Utxo(
            addr=address_to_field(keypair.address),
            amount=1000,
            nonce=derive_nonce(b"benchout", i.to_bytes(8, "little")),
        )
        txs.append(sign_payment([(current, keypair)], [nxt]))
        current = nxt
    return state, txs


def run_epoch_proving_workload() -> dict:
    """Serial vs process-pool epoch proving over a chain of payments.

    On a 4+ core machine this proves a 64-transaction epoch with 4 workers
    and expects a real speedup; on smaller machines :class:`ProverPool`
    clamps to the core count (degrading to in-process proving on 1 core),
    so the workload shrinks and only a no-slower bound is enforced.
    """
    cores = os.cpu_count() or 1
    wide = cores >= 4
    tx_count = 64 if wide else 16
    workers = 4 if wide else 2

    state, txs = _payment_chain(tx_count)

    serial_prover = EpochProver()
    start = time.perf_counter()
    serial = serial_prover.prove_epoch(state.copy(), txs)
    serial_wall = time.perf_counter() - start

    with EpochProver(parallel_workers=workers) as prover:
        start = time.perf_counter()
        parallel = prover.prove_epoch(state.copy(), txs)
        parallel_wall = time.perf_counter() - start

    def _stats(result, wall):
        s = result.stats
        return {
            "wall_s": wall,
            "base_proofs": s.base_proofs,
            "merge_proofs": s.merge_proofs,
            "constraints": s.constraints,
            "synthesis_seconds": s.synthesis_seconds,
            "serialization_seconds": s.serialization_seconds,
            "pool_workers": s.pool_workers,
            "pool_tasks": s.pool_tasks,
            "pool_chunks": s.pool_chunks,
            "pool_occupancy": s.pool_occupancy,
            "critical_path_depth": s.critical_path_depth,
        }

    effective_workers = parallel.stats.pool_workers
    speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
    return {
        "workload": (
            f"epoch of {tx_count} chained payments, serial vs "
            f"{workers}-worker pool ({cores} cores)"
        ),
        "cores": cores,
        "requested_workers": workers,
        "effective_workers": effective_workers,
        "serial": _stats(serial, serial_wall),
        "parallel": _stats(parallel, parallel_wall),
        "wall_speedup": speedup,
        "proof_counts_match": (
            serial.stats.base_proofs == parallel.stats.base_proofs == tx_count
            and serial.stats.merge_proofs == parallel.stats.merge_proofs
        ),
        "public_inputs_match": (
            serial.proof.public_input == parallel.proof.public_input
            and serial.proof.proof.data == parallel.proof.proof.data
        ),
    }


def run_telemetry_workload() -> dict:
    """One full harness epoch observed end-to-end by the global registry.

    Also times the batched Merkle workload with the registry enabled vs
    disabled to bound the cost of the always-on instrumentation.
    """
    from repro.scenarios import ZendooHarness

    observability.reset()
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("bench-telemetry", epoch_len=5, submit_len=2)
    user = KeyPair.from_seed("bench-telemetry/user")
    harness.forward_transfer(sc, user, 100_000)
    harness.run_epochs(sc, 1)

    registry = observability.registry()
    export = observability.export
    flat = export.flatten(registry)
    # compare both exporters on the same frozen view, before the timing
    # runs below move the counters again
    exporters_agree = export.parse_prometheus(export.to_prometheus(registry)) == flat
    telemetry = harness.telemetry()
    span_names = {span["name"] for span in telemetry["spans"]}

    def _merkle_wall() -> float:
        updates = [(i, i + 1) for i in range(MERKLE_LEAVES)]
        mimc.clear_cache()
        start = time.perf_counter()
        FixedMerkleTree(MERKLE_DEPTH).set_leaves(updates)
        return time.perf_counter() - start

    enabled_wall = _merkle_wall()
    observability.disable()
    try:
        disabled_wall = _merkle_wall()
    finally:
        observability.enable()

    return {
        "workload": "harness epoch under the unified observability layer",
        "series_count": len(flat),
        "mimc_compressions": flat.get("repro_mimc_compressions_total", 0),
        "mainchain_blocks": flat.get("repro_mainchain_blocks_connected_total", 0),
        "wcerts_accepted": flat.get('repro_cctp_wcert_total{result="accepted"}', 0),
        "latus_blocks_forged": flat.get("repro_latus_blocks_forged_total", 0),
        "network_latency_samples": flat.get("repro_network_latency_seconds_count", 0),
        "span_names": sorted(span_names),
        "exporters_agree": exporters_agree,
        "telemetry_serializable": bool(json.dumps(telemetry)),
        "enabled_merkle_wall_s": enabled_wall,
        "disabled_merkle_wall_s": disabled_wall,
    }


def _chaos_once():
    """One deterministic chaos run on a fresh three-node deployment."""
    from repro.latus.params import LatusParams
    from repro.mainchain.node import MainchainNode
    from repro.mainchain.params import MainchainParams
    from repro.mainchain.transaction import SidechainDeclarationTx
    from repro.network import FaultPlan, partition
    from repro.scenarios import MultiNodeDeployment, latus_sidechain_config

    miner = KeyPair.from_seed("bench-chaos/miner")
    creator = KeyPair.from_seed("bench-chaos/creator")
    stakers = [KeyPair.from_seed(f"bench-chaos/staker-{i}") for i in range(2)]
    mc = MainchainNode(MainchainParams(pow_zero_bits=2, coinbase_maturity=1))
    mc.mine_blocks(miner.address, 2)
    config = latus_sidechain_config(
        "bench-chaos", start_block=mc.height + 2, epoch_len=4, submit_len=2
    )
    mc.submit_transaction(SidechainDeclarationTx(config=config))
    mc.mine_block(miner.address)
    deployment = MultiNodeDeployment(
        config=config,
        params=LatusParams(mst_depth=10, slots_per_epoch=6),
        mc_node=mc,
        creator=creator,
        stakeholders=stakers,
    )
    plan = FaultPlan(
        seed=b"bench-chaos",
        drop_rate=0.05,
        duplicate_rate=0.05,
        reorder_rate=0.1,
        spike_rate=0.05,
        partitions=(
            partition(
                [("creator", "node-0"), ("node-1",)], from_t=2.0, until_t=5.0
            ),
        ),
    )
    try:
        return deployment.run_chaos(
            miner.address,
            rounds=8,
            plan=plan,
            crash_at={2: ["node-1"]},
            restart_at={5: ["node-1"]},
        )
    finally:
        deployment.close()


def run_chaos_workload() -> dict:
    """The seeded chaos run, executed twice to gate on reproducibility."""
    import hashlib

    start = time.perf_counter()
    first = _chaos_once()
    first_wall = time.perf_counter() - start
    start = time.perf_counter()
    second = _chaos_once()
    second_wall = time.perf_counter() - start

    def _summary(report, wall):
        return {
            "wall_s": wall,
            "sc_blocks_forged": report.sc_blocks_forged,
            "delivered": report.delivered,
            "dropped": report.dropped,
            "handler_errors": report.handler_errors,
            "crashes": report.crashes,
            "restarts": report.restarts,
            "resyncs": report.resyncs,
            "reference": report.reference,
            "final_height": report.final_height,
            "fault_counts": report.fault_counts,
            "schedule_sha256": hashlib.sha256(report.fault_schedule).hexdigest(),
        }

    return {
        "workload": (
            "8-round 3-node chaos (5% drop, dups, reorder, partition, one "
            "crash/restart), seeded and run twice"
        ),
        "first": _summary(first, first_wall),
        "second": _summary(second, second_wall),
        "converged": first.converged and second.converged,
        "faults_fired": len(first.fault_schedule) > 0,
        "partition_fired": first.fault_counts.get("partition", 0) > 0,
        "crash_recovered": first.crashes == 1 and first.restarts >= 1,
        "schedules_identical": first.fault_schedule == second.fault_schedule,
        "outcomes_identical": (
            (first.final_height, first.final_digest)
            == (second.final_height, second.final_digest)
        ),
    }


def chaos_checks(chaos: dict) -> dict:
    """The BENCH_pr5 gate: survive the faults, reproduce them exactly."""
    return {
        "chaos_converged": chaos["converged"],
        "chaos_faults_fired": chaos["faults_fired"],
        "chaos_partition_fired": chaos["partition_fired"],
        "chaos_crash_recovered": chaos["crash_recovered"],
        # acceptance target: same seed -> byte-identical fault schedule and
        # the same final chain on both runs
        "chaos_schedule_reproducible": chaos["schedules_identical"],
        "chaos_outcome_reproducible": chaos["outcomes_identical"],
    }


def telemetry_checks(tele: dict) -> dict:
    """The BENCH_pr3 gate: the snapshot must be internally consistent."""
    return {
        "mimc_compressions_counted": tele["mimc_compressions"] > 0,
        "mainchain_blocks_counted": tele["mainchain_blocks"] > 0,
        "wcert_verification_counted": tele["wcerts_accepted"] >= 1,
        "latus_blocks_counted": tele["latus_blocks_forged"] > 0,
        "network_latency_sampled": tele["network_latency_samples"] > 0,
        "epoch_span_present": "epoch/prove" in tele["span_names"],
        "exporters_agree": tele["exporters_agree"],
        # disabling metrics must never make the hot path slower; generous
        # noise tolerance since both runs are sub-second
        "disabled_mode_no_slower": (
            tele["disabled_merkle_wall_s"] <= tele["enabled_merkle_wall_s"] * 1.25
        ),
    }


def epoch_checks(epoch: dict) -> dict:
    """The BENCH_pr2 gate, conditioned on how parallel the machine is."""
    checks = {
        "epoch_proof_counts_match": epoch["proof_counts_match"],
        "epoch_public_inputs_match": epoch["public_inputs_match"],
    }
    if epoch["effective_workers"] >= 4:
        # acceptance target: >= 2x on a 4+ core machine at 64 txs
        checks["epoch_speedup_at_least_2x"] = epoch["wall_speedup"] >= 2.0
    elif epoch["effective_workers"] >= 2:
        checks["epoch_parallel_no_slower"] = (
            epoch["parallel"]["wall_s"] <= epoch["serial"]["wall_s"] * 1.10
        )
    else:
        # pool degraded to in-process proving (1 core): only bound overhead
        checks["epoch_fallback_overhead_bounded"] = (
            epoch["parallel"]["wall_s"] <= epoch["serial"]["wall_s"] * 1.25
        )
    return checks


def run_durability_workload() -> dict:
    """The PR 8 storage-engine workload: WAL overhead + recovery speed.

    Gate (a): attaching the write-ahead journal to the PR 1 MST bulk-insert
    path (one staged leaf-batch record + one committed block marker per
    batch, ``fsync="block"``) must cost <= 1.5x the store-less run.

    Gate (b): on a 50-block sidechain, a restart from the data directory
    (snapshot + WAL-tail replay, digest-checked trusted replay) must be
    strictly faster than a fresh node adopting the same chain through a
    full peer resync that re-validates every signature — that is the whole
    point of keeping the store.
    """
    import shutil
    import tempfile

    from repro.latus.node import LatusNode
    from repro.scenarios import ZendooHarness
    from repro.storage import SC_BLOCK, SC_LEAF_BATCH, FileStore, encode_leaf_batch

    utxos: list[Utxo] = []
    seen: set[int] = set()
    nonce = 0
    while len(utxos) < MST_UTXOS:
        u = Utxo(addr=1, amount=5, nonce=nonce)
        nonce += 1
        position = u.position(MST_DEPTH)
        if position not in seen:
            seen.add(position)
            utxos.append(u)

    def bare() -> int:
        mst = MerkleStateTree(MST_DEPTH)
        mst.apply_batch(add=utxos)
        return mst.root

    def journaled(store: FileStore) -> int:
        # exactly what LatusNode does per block: stage the validated leaf
        # batch, apply, then commit everything behind one block marker
        mst = MerkleStateTree(MST_DEPTH)
        mst.attach_journal(
            lambda updates: store.stage(SC_LEAF_BATCH, encode_leaf_batch(updates))
        )
        mst.apply_batch(add=utxos)
        store.stage(SC_BLOCK, b"\x00" * 32)
        store.commit()
        return mst.root

    bare_walls, journaled_walls = [], []
    roots = set()
    wal_bytes = 0
    for _ in range(3):
        start = time.perf_counter()
        roots.add(bare())
        bare_walls.append(time.perf_counter() - start)
        data_dir = tempfile.mkdtemp(prefix="bench-pr8-mst-")
        try:
            store = FileStore(data_dir, fsync="block")
            start = time.perf_counter()
            roots.add(journaled(store))
            journaled_walls.append(time.perf_counter() - start)
            wal_bytes = store.describe()["wal_bytes"]
            store.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    wal_off, wal_on = min(bare_walls), min(journaled_walls)
    overhead = wal_on / wal_off if wal_off else float("inf")

    alice = KeyPair.from_seed("bench-pr8/alice")
    bob = KeyPair.from_seed("bench-pr8/bob")
    creator = KeyPair.from_seed("bench-pr8/creator")
    data_dir = tempfile.mkdtemp(prefix="bench-pr8-sc-")
    try:
        harness = ZendooHarness(use_network=False)
        harness.mine(2)
        sc = harness.create_sidechain(
            "bench-pr8", epoch_len=4, submit_len=2, data_dir=data_dir
        )
        harness.forward_transfer(sc, alice, 50_000)
        harness.mine(2)
        for i in range(6):
            harness.wallet(sc, alice).pay(bob.address, 100 + i)
            harness.run_epochs(sc, 2)
        chain_blocks = len(sc.node.blocks)
        tip = sc.node.tip_hash

        restart_walls, resync_walls = [], []
        recovered_ok = resynced_ok = True
        for _ in range(2):
            # trusted replay: digest-checked, no signature re-verification
            start = time.perf_counter()
            recovered = LatusNode(
                config=sc.config,
                params=sc.node.params,
                mc_node=harness.mc,
                creator=creator,
                data_dir=data_dir,
            )
            restart_walls.append(time.perf_counter() - start)
            recovered_ok &= recovered.tip_hash == tip
            recovered.close()

            # the honest alternative: a replacement node (with its own store,
            # like any durable node) re-validating the whole chain from a peer
            fresh_dir = tempfile.mkdtemp(prefix="bench-pr8-resync-")
            try:
                fresh = LatusNode(
                    config=sc.config,
                    params=sc.node.params,
                    mc_node=harness.mc,
                    creator=creator,
                    data_dir=fresh_dir,
                )
                start = time.perf_counter()
                fresh.sync_from(sc.node)
                resync_walls.append(time.perf_counter() - start)
                resynced_ok &= fresh.tip_hash == tip
                fresh.close()
            finally:
                shutil.rmtree(fresh_dir, ignore_errors=True)
        sc.node.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    restart_wall, resync_wall = min(restart_walls), min(resync_walls)

    return {
        "workload": (
            f"MST {MST_UTXOS}-utxo bulk insert with/without WAL + "
            f"{chain_blocks}-block sidechain restart-from-disk vs peer resync"
        ),
        "mst_wal_off": {"wall_s": wal_off},
        "mst_wal_on": {"wall_s": wal_on, "wal_bytes": wal_bytes},
        "wal_overhead_ratio": overhead,
        "roots_match": len(roots) == 1,
        "chain_blocks": chain_blocks,
        "restart_from_disk": {"wall_s": restart_wall},
        "peer_resync": {"wall_s": resync_wall},
        "recovery_speedup": resync_wall / restart_wall if restart_wall else float("inf"),
        "recovered_tip_identical": recovered_ok,
        "resynced_tip_identical": resynced_ok,
    }


def durability_checks(dur: dict) -> dict:
    """The BENCH_pr8 gate: cheap WAL, recovery faster than resync."""
    return {
        "durability_roots_match": dur["roots_match"],
        "durability_recovered_tip_identical": dur["recovered_tip_identical"],
        "durability_resynced_tip_identical": dur["resynced_tip_identical"],
        # acceptance target (a): write-ahead batching keeps the PR 1 bulk
        # insert within 1.5x of the store-less run
        "durability_wal_overhead_within_1_5x": dur["wal_overhead_ratio"] <= 1.5,
        # acceptance target (b): restart-from-disk strictly beats a full
        # re-validated peer resync of the same chain
        "durability_restart_faster_than_resync": (
            dur["restart_from_disk"]["wall_s"] < dur["peer_resync"]["wall_s"]
        ),
    }


def run_paged_parity_workload() -> dict:
    """The PR 9 hard gate: dict vs paged node stores must be bit-for-bit twins.

    Three store configurations — :class:`DictNodeStore` (reference),
    :class:`PagedNodeStore` at a generous cache, and :class:`PagedNodeStore`
    at a pathologically tiny cache (8-node pages, 1 resident page, so every
    other access spills and reloads) — each drive (a) a scattered
    ``set_leaves`` bulk insert with membership proofs, and (b) a full
    harness sidechain through two certified epochs.  Roots, proof objects,
    chain digests and *epoch certificate bytes* must be identical across
    all three.
    """
    from repro.scenarios import ZendooHarness
    from repro.storage.pages import DictNodeStore, PagedNodeStore

    depth = 12
    positions = sorted({(i * 2654435761) % (1 << depth) for i in range(300)})
    updates = [(p, p + 7) for p in positions]
    probe = positions[:: max(1, len(positions) // 16)]
    store_kinds = {
        "dict": {},
        "paged_generous": {
            "paged_mst": True,
            "mst_page_size": 1024,
            "mst_cache_pages": 256,
        },
        "paged_tiny": {"paged_mst": True, "mst_page_size": 8, "mst_cache_pages": 1},
    }

    def _tree_store(name: str):
        if name == "dict":
            return DictNodeStore()
        kwargs = store_kinds[name]
        return PagedNodeStore(
            page_size=kwargs["mst_page_size"], cache_pages=kwargs["mst_cache_pages"]
        )

    roots: dict[str, int] = {}
    proofs: dict[str, list] = {}
    walls: dict[str, float] = {}
    for name in store_kinds:
        mimc.clear_cache()
        start = time.perf_counter()
        tree = FixedMerkleTree(depth, node_store=_tree_store(name))
        tree.set_leaves(updates)
        roots[name] = tree.root
        proofs[name] = [tree.prove(p) for p in probe]
        walls[name] = time.perf_counter() - start

    digests: dict[str, str] = {}
    cert_counts: dict[str, int] = {}
    cert_bytes: dict[str, bytes] = {}
    for name, kwargs in store_kinds.items():
        harness = ZendooHarness(use_network=False)
        harness.mine(2)
        sc = harness.create_sidechain(
            "bench-pr9-parity", epoch_len=4, submit_len=2, **kwargs
        )
        user = KeyPair.from_seed("bench-pr9/user")
        harness.forward_transfer(sc, user, 75_000)
        harness.run_epochs(sc, 2)
        digests[name] = f"{sc.node.tip_hash.hex()}:{sc.node.state.digest():#x}"
        cert_counts[name] = len(sc.node.certificates)
        cert_bytes[name] = b"".join(c.encode() for c in sc.node.certificates)
        sc.node.close()

    reference = cert_bytes["dict"]
    return {
        "workload": (
            f"{len(positions)}-leaf scattered bulk insert + 2 certified harness "
            "epochs under dict / paged(generous) / paged(tiny 8x1) node stores"
        ),
        "bulk_insert_wall_s": walls,
        "roots_identical": len(set(roots.values())) == 1,
        "proofs_identical": all(proofs[k] == proofs["dict"] for k in proofs),
        "digests": digests,
        "digests_identical": len(set(digests.values())) == 1,
        "epoch_certificates": cert_counts["dict"],
        "epoch_proof_bytes_compared": len(reference),
        "epoch_proof_bytes_identical": all(b == reference for b in cert_bytes.values()),
    }


def _soak_child(store: str, data_dir: str | None = None) -> dict:
    """Run one ``benchmarks.soak_mst`` child and parse its JSON report.

    A child process per store kind because ``ru_maxrss`` is a
    process-lifetime high-water mark: measuring both stores in one
    interpreter would let the first run's peak mask the second's.
    """
    import subprocess

    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable,
        "-m",
        "benchmarks.soak_mst",
        "--store",
        store,
        "--leaves",
        str(SOAK_LEAVES),
        "--depth",
        str(SOAK_DEPTH),
    ]
    if data_dir is not None:
        cmd += ["--data-dir", data_dir]
    result = subprocess.run(
        cmd, cwd=repo_root, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def run_million_utxo_soak() -> dict:
    """The depth-30 million-UTXO soak: dict vs paged store, separate processes.

    The gate is memory-shaped: the paged store must finish under
    ``baseline + SOAK_RSS_HEADROOM_KB`` peak RSS while the dict store
    measurably exceeds the same budget, at >= 0.5x the dict store's
    bulk-insert throughput and with the identical root.
    """
    import shutil
    import tempfile

    baseline = _soak_child("baseline")
    dict_run = _soak_child("dict")
    spill_dir = tempfile.mkdtemp(prefix="bench-pr9-soak-")
    try:
        paged_run = _soak_child("paged", data_dir=spill_dir)
        spill_bytes = sum(
            p.stat().st_size for p in Path(spill_dir).iterdir() if p.is_file()
        )
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    budget_kb = baseline["peak_rss_kb"] + SOAK_RSS_HEADROOM_KB
    return {
        "workload": (
            f"depth-{SOAK_DEPTH} tree, {SOAK_LEAVES} leaves, dict vs paged "
            "node store in separate child processes"
        ),
        "leaves": SOAK_LEAVES,
        "depth": SOAK_DEPTH,
        "baseline_rss_kb": baseline["peak_rss_kb"],
        "rss_headroom_kb": SOAK_RSS_HEADROOM_KB,
        "rss_budget_kb": budget_kb,
        "dict": {
            "wall_s": dict_run["seconds"],
            "peak_rss_kb": dict_run["peak_rss_kb"],
            "root": dict_run["root"],
        },
        "paged": {
            "wall_s": paged_run["seconds"],
            "peak_rss_kb": paged_run["peak_rss_kb"],
            "root": paged_run["root"],
            "store_detail": paged_run.get("store_detail"),
            "spill_bytes": spill_bytes,
        },
        "roots_match": dict_run["root"] == paged_run["root"],
        "paged_under_budget": paged_run["peak_rss_kb"] <= budget_kb,
        "dict_over_budget": dict_run["peak_rss_kb"] > budget_kb,
        "throughput_ratio": (
            dict_run["seconds"] / paged_run["seconds"]
            if paged_run["seconds"]
            else float("inf")
        ),
    }


def run_wcert_flood_workload() -> dict:
    """The 1000-sidechain WCert flood through the batched verification pool."""
    from repro.scenarios.workload import CertificateFloodWorkload
    from repro.snark.pool import ProverPool

    count = int(os.environ.get("REPRO_SOAK_FLOOD_COUNT", "1000"))
    flood = CertificateFloodWorkload(count=count, verify_pool=ProverPool())
    try:
        start = time.perf_counter()
        flood.register()
        registered_wall = time.perf_counter() - start
        flood.run_epoch()
        start = time.perf_counter()
        certificates = flood.build_certificates()
        prove_wall = time.perf_counter() - start
        start = time.perf_counter()
        blocks = flood.flood(certificates)
        flood_wall = time.perf_counter() - start
        report = flood.adoption_report()
    finally:
        flood.close()
    return {
        "workload": (
            f"{count} sidechains, one shared submission window, every WCert "
            "through ProverPool.map_verify"
        ),
        "register_wall_s": registered_wall,
        "prove_wall_s": prove_wall,
        "flood_wall_s": flood_wall,
        "window_blocks": blocks,
        **report,
    }


def paged_parity_checks(parity: dict) -> dict:
    """The PR 9 equivalence gate (also enforced in tests/test_paged_store.py)."""
    return {
        "paged_roots_identical": parity["roots_identical"],
        "paged_proofs_identical": parity["proofs_identical"],
        "paged_digests_identical": parity["digests_identical"],
        "paged_epoch_proof_bytes_identical": parity["epoch_proof_bytes_identical"],
        "paged_epochs_certified": parity["epoch_certificates"] > 0,
    }


def soak_checks(soak: dict, flood: dict) -> dict:
    """The BENCH_pr9 gate: bounded memory, comparable speed, full adoption."""
    return {
        "soak_roots_match": soak["roots_match"],
        # acceptance target: the paged store finishes the million-UTXO build
        # inside the RSS budget that the dict store measurably exceeds
        "soak_paged_under_rss_budget": soak["paged_under_budget"],
        "soak_dict_exceeds_rss_budget": soak["dict_over_budget"],
        # acceptance target: paged bulk-insert throughput >= 0.5x dict
        "soak_paged_throughput_at_least_half": soak["throughput_ratio"] >= 0.5,
        "flood_all_adopted": flood["adopted"] == flood["sidechains"],
        # acceptance target: every certificate lands inside the one shared
        # submission window, verified through the batched pool path
        "flood_adopted_in_window": flood["adopted_in_window"] == flood["sidechains"],
        "flood_verified_via_pool": flood["pool_verifications"] >= flood["sidechains"],
    }


def _run_soak_suite(out: Path) -> dict:
    """Run the PR 9 paged-store suite, write its report, print a summary."""
    parity = run_paged_parity_workload()
    parity_gate = paged_parity_checks(parity)
    soak = run_million_utxo_soak()
    flood = run_wcert_flood_workload()
    checks = {**parity_gate, **soak_checks(soak, flood)}
    report = {
        "suite": "paged MST node store soak (PR 9)",
        "workloads": {
            "paged_parity": parity,
            "million_utxo": soak,
            "wcert_flood": flood,
        },
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"paged_parity: digests {sorted(set(parity['digests'].values()))} across "
        f"dict/generous/tiny stores, {parity['epoch_certificates']} certified "
        "epochs compared byte-for-byte"
    )
    print(
        f"million_utxo: {soak['leaves']} leaves at depth {soak['depth']} — dict "
        f"{soak['dict']['wall_s']:.1f}s / {soak['dict']['peak_rss_kb'] // 1024}MiB "
        f"peak vs paged {soak['paged']['wall_s']:.1f}s / "
        f"{soak['paged']['peak_rss_kb'] // 1024}MiB peak "
        f"(budget {soak['rss_budget_kb'] // 1024}MiB, throughput ratio "
        f"{soak['throughput_ratio']:.2f}x)"
    )
    print(
        f"wcert_flood: {flood['adopted']}/{flood['sidechains']} adopted in window "
        f"{flood['window']} over {flood['window_blocks']} blocks, "
        f"{flood['pool_verifications']} pool verifications "
        f"(prove {flood['prove_wall_s']:.1f}s, flood {flood['flood_wall_s']:.1f}s)"
    )
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return report


def run_adversarial_workload() -> dict:
    """The PR 10 red-team sweep: every proof-market attack scenario.

    Runs the full :data:`repro.scenarios.adversarial.SCENARIOS` registry at
    the quick (PR) or full (nightly, ``REPRO_ADVERSARIAL_FULL=1``) epoch
    shape and reports each scenario's gated checks plus the headline
    payout facts.
    """
    from repro.scenarios.adversarial import run_all

    full = os.environ.get("REPRO_ADVERSARIAL_FULL", "0") == "1"
    tx_count = ADVERSARIAL_FULL_TXS if full else ADVERSARIAL_QUICK_TXS
    started = time.perf_counter()
    reports = run_all(seed=b"smoke", tx_count=tx_count)
    return {
        "mode": "full" if full else "quick",
        "tx_count": tx_count,
        "wall_s": time.perf_counter() - started,
        "scenarios": {rep.name: rep.to_dict() for rep in reports},
    }


def adversarial_checks(adv: dict) -> dict:
    """One gate per scenario, plus the cross-cutting market invariants."""
    scenarios = adv["scenarios"]
    checks = {
        f"{name.replace('-', '_')}_passed": rep["passed"]
        for name, rep in scenarios.items()
    }
    checks["all_epochs_proven"] = all(
        rep["checks"]["epoch_proven"] for rep in scenarios.values()
    )
    checks["all_digests_match_honest"] = all(
        rep["checks"]["digest_matches_honest"] and rep["checks"]["proof_matches_honest"]
        for rep in scenarios.values()
    )
    checks["all_conserve_rewards_exactly"] = all(
        rep["checks"]["conservation_exact"] for rep in scenarios.values()
    )
    checks["all_deterministic_replays"] = all(
        rep["checks"]["deterministic_replay"] for rep in scenarios.values()
    )
    return checks


def _run_adversarial_suite(out: Path) -> dict:
    """Run the PR 10 red-team suite, write its report, print a summary."""
    adv = run_adversarial_workload()
    checks = adversarial_checks(adv)
    report = {
        "suite": "adversarial proof market smoke (PR 10)",
        "workloads": {"adversarial": adv},
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"adversarial: {len(adv['scenarios'])} scenarios at {adv['tx_count']} txs "
        f"({adv['mode']} mode) in {adv['wall_s']:.1f}s"
    )
    for name, rep in adv["scenarios"].items():
        gates = rep["checks"]
        failed = sorted(g for g, ok in gates.items() if not ok)
        stmt = rep["statement"]
        print(
            f"  {name}: {'ok' if rep['passed'] else 'FAIL ' + str(failed)} — "
            f"pool {stmt['pool_in']}, forger {stmt['forger_reward']}, "
            f"paid {stmt['total_paid']}, slashed {stmt['total_slashed']}"
        )
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return report


def _run_durability_suite(out: Path) -> dict:
    """Run the PR 8 durability workload, write its report, print a summary."""
    dur = run_durability_workload()
    checks = durability_checks(dur)
    report = {
        "suite": "durable storage engine smoke (PR 8)",
        "workloads": {"durability": dur},
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"durability: MST bulk insert {dur['mst_wal_off']['wall_s'] * 1e3:.1f}ms "
        f"bare vs {dur['mst_wal_on']['wall_s'] * 1e3:.1f}ms journaled "
        f"({dur['wal_overhead_ratio']:.2f}x, gate <= 1.5x); "
        f"{dur['chain_blocks']}-block restart "
        f"{dur['restart_from_disk']['wall_s'] * 1e3:.1f}ms vs peer resync "
        f"{dur['peer_resync']['wall_s'] * 1e3:.1f}ms "
        f"({dur['recovery_speedup']:.2f}x faster)"
    )
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return report


def _run_scale_suite(out: Path) -> dict:
    """Run the PR 7 scale-out workload, write its report, print a summary."""
    from benchmarks.bench_scale_sidechains import run_scale_workload, scale_checks

    scale = run_scale_workload()
    checks = scale_checks(scale)
    report = {
        "suite": "many-sidechains scale-out smoke (PR 7)",
        "workloads": {"scale_sidechains": scale},
        "checks": checks,
        "ok": all(checks.values()),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"scale_sidechains: {scale['small']['registered']} sidechains "
        f"{scale['small']['per_block_wall_s'] * 1e3:.2f}ms/block vs "
        f"{scale['large']['registered']} sidechains "
        f"{scale['large']['per_block_wall_s'] * 1e3:.2f}ms/block — "
        f"{scale['per_block_ratio']:.2f}x (gate <= {scale['max_ratio']:.1f}x), "
        f"{scale['parity_large']['blocks_checked']} headers audited against "
        "the naive rebuild"
    )
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(f"wrote {out}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--out-pr2",
        type=Path,
        default=DEFAULT_OUT_PR2,
        help="output JSON path for the epoch-proving workload",
    )
    parser.add_argument(
        "--out-pr3",
        type=Path,
        default=DEFAULT_OUT_PR3,
        help="output JSON path for the observability workload",
    )
    parser.add_argument(
        "--out-pr5",
        type=Path,
        default=DEFAULT_OUT_PR5,
        help="output JSON path for the chaos/fault-injection workload",
    )
    parser.add_argument(
        "--out-pr7",
        type=Path,
        default=DEFAULT_OUT_PR7,
        help="output JSON path for the many-sidechains scale-out workload",
    )
    parser.add_argument(
        "--out-pr8",
        type=Path,
        default=DEFAULT_OUT_PR8,
        help="output JSON path for the storage-durability workload",
    )
    parser.add_argument(
        "--out-pr9",
        type=Path,
        default=DEFAULT_OUT_PR9,
        help="output JSON path for the paged-MST soak workload",
    )
    parser.add_argument(
        "--out-pr10",
        type=Path,
        default=DEFAULT_OUT_PR10,
        help="output JSON path for the adversarial proof-market workload",
    )
    parser.add_argument(
        "--scale-only",
        action="store_true",
        help="run only the scale-out workload (the CI bench-scale leg)",
    )
    parser.add_argument(
        "--durability-only",
        action="store_true",
        help="run only the durability workload (the CI bench-durability leg)",
    )
    parser.add_argument(
        "--soak-only",
        action="store_true",
        help="run only the paged-MST soak + WCert flood (the CI bench-soak leg)",
    )
    parser.add_argument(
        "--adversarial-only",
        action="store_true",
        help="run only the proof-market red-team suite "
        "(the CI scenario-adversarial leg)",
    )
    args = parser.parse_args(argv)
    for out in (
        args.out,
        args.out_pr2,
        args.out_pr3,
        args.out_pr5,
        args.out_pr7,
        args.out_pr8,
        args.out_pr9,
        args.out_pr10,
    ):
        if not out.parent.is_dir():
            parser.error(f"output directory does not exist: {out.parent}")

    if args.scale_only:
        pr7_report = _run_scale_suite(args.out_pr7)
        return 0 if pr7_report["ok"] else 1
    if args.durability_only:
        pr8_report = _run_durability_suite(args.out_pr8)
        return 0 if pr8_report["ok"] else 1
    if args.soak_only:
        pr9_report = _run_soak_suite(args.out_pr9)
        return 0 if pr9_report["ok"] else 1
    if args.adversarial_only:
        pr10_report = _run_adversarial_suite(args.out_pr10)
        return 0 if pr10_report["ok"] else 1

    merkle = run_merkle_workload()
    mst = run_mst_workload()

    checks = {
        "merkle_roots_match": merkle["roots_match"],
        "mst_roots_match": mst["roots_match"],
        # gross-regression gate: batched workload must stay within 2x of the
        # distinct-ancestor compression count it is supposed to perform
        "merkle_batched_within_2x_ancestors": (
            merkle["batched"]["compressions"]
            <= 2 * merkle["expected_batched_compressions"]
        ),
        "mst_batched_fewer_compressions": (
            mst["batched"]["compressions"] < mst["sequential"]["compressions"]
        ),
    }

    report = {
        "suite": "mimc-merkle performance smoke (PR 1)",
        "workloads": {"merkle_bulk_insert": merkle, "mst_bulk_insert": mst},
        "checks": checks,
        "ok": all(checks.values()),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    epoch = run_epoch_proving_workload()
    pr2_checks = epoch_checks(epoch)
    pr2_report = {
        "suite": "parallel epoch proving smoke (PR 2)",
        "workloads": {"epoch_proving": epoch},
        "checks": pr2_checks,
        "ok": all(pr2_checks.values()),
    }
    args.out_pr2.write_text(json.dumps(pr2_report, indent=2) + "\n")

    tele = run_telemetry_workload()
    pr3_checks = telemetry_checks(tele)
    pr3_report = {
        "suite": "unified observability smoke (PR 3)",
        "workloads": {"telemetry": tele},
        "checks": pr3_checks,
        "ok": all(pr3_checks.values()),
    }
    args.out_pr3.write_text(json.dumps(pr3_report, indent=2) + "\n")

    chaos = run_chaos_workload()
    pr5_checks = chaos_checks(chaos)
    pr5_report = {
        "suite": "fault injection and crash recovery smoke (PR 5)",
        "workloads": {"chaos": chaos},
        "checks": pr5_checks,
        "ok": all(pr5_checks.values()),
    }
    args.out_pr5.write_text(json.dumps(pr5_report, indent=2) + "\n")

    for name, result in report["workloads"].items():
        print(
            f"{name}: sequential {result['sequential']['wall_s']:.3f}s "
            f"({result['sequential']['compressions']} compressions) vs batched "
            f"{result['batched']['wall_s']:.3f}s "
            f"({result['batched']['compressions']} compressions) — "
            f"{result['wall_speedup']:.1f}x wall, "
            f"{result['compression_ratio']:.1f}x fewer calls"
        )
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(
        f"epoch_proving: serial {epoch['serial']['wall_s']:.3f}s vs parallel "
        f"{epoch['parallel']['wall_s']:.3f}s "
        f"({epoch['effective_workers']} effective workers of "
        f"{epoch['requested_workers']} requested on {epoch['cores']} cores) — "
        f"{epoch['wall_speedup']:.2f}x wall, occupancy "
        f"{epoch['parallel']['pool_occupancy']:.2f}"
    )
    for name, passed in pr2_checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    print(
        f"telemetry: {tele['series_count']} series after one harness epoch "
        f"({int(tele['mimc_compressions'])} compressions, "
        f"{int(tele['network_latency_samples'])} latency samples); enabled "
        f"{tele['enabled_merkle_wall_s']:.3f}s vs disabled "
        f"{tele['disabled_merkle_wall_s']:.3f}s merkle wall"
    )
    for name, passed in pr3_checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    first = chaos["first"]
    print(
        f"chaos: {first['sc_blocks_forged']} SC blocks under "
        f"{first['dropped']} dropped / {first['delivered']} delivered "
        f"messages, {first['crashes']} crash, {first['restarts']} restarts, "
        f"{first['resyncs']} resyncs — converged at height "
        f"{first['final_height']} on {first['reference']} "
        f"({first['wall_s']:.3f}s per run)"
    )
    for name, passed in pr5_checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAIL'}")
    pr7_report = _run_scale_suite(args.out_pr7)
    pr8_report = _run_durability_suite(args.out_pr8)
    pr10_report = _run_adversarial_suite(args.out_pr10)
    print(
        f"wrote {args.out}, {args.out_pr2}, {args.out_pr3}, {args.out_pr5}, "
        f"{args.out_pr7}, {args.out_pr8} and {args.out_pr10}"
    )
    return 0 if all(
        r["ok"]
        for r in (
            report,
            pr2_report,
            pr3_report,
            pr5_report,
            pr7_report,
            pr8_report,
            pr10_report,
        )
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
