"""The benchmark's fixed vocabulary: workloads, metrics, bounds, the layer map.

Everything a later performance issue may cite is named here exactly once.
``BENCHMARK.json`` at the repository root is generated from this module
(:func:`manifest`) and the runner refuses to start when the two disagree, so
the names, units, directions and bounds cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one invocation measures (summed over its repeats) at the sizes
#: below, on the 2-core reference box.  ``--seconds`` scales the timed epoch
#: count linearly from this.
RUN_SECONDS = 12

#: Fresh child processes per invocation; every metric is their median.
DEFAULT_REPEATS = 3

ALL = ("epoch_large", "epoch_small", "mc_fleet", "durable_nodes")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Size at ``--seconds RUN_SECONDS``; ``epochs`` is per child process.
    params: dict
    #: ``--quick`` size: the output checks run, the numbers are not comparable.
    quick: dict


WORKLOADS = (
    Workload(
        name="epoch_large",
        why=(
            "One Latus sidechain, ~140 transitions per epoch, varying FT counts per block: snark, "
            "crypto.signatures and crypto.mimc do the work; batching gains must show here."
        ),
        params=dict(
            accounts=32, funding=(5, 7, 9, 11), payers=32, warm_payers=8, epoch_len=4,
            submit_len=2, epochs=1, ft_counts=(0, 4, 8, 12), mst_depth=12,
        ),
        quick=dict(
            accounts=6, funding=(1, 2, 3), payers=6, warm_payers=6, epoch_len=4,
            submit_len=2, epochs=1, ft_counts=(0, 1, 2, 3), mst_depth=12,
        ),
    ),
    Workload(
        name="epoch_small",
        why=(
            "Same pipeline at 15 transitions per epoch: Merkle batches of 1-3 leaves, a "
            "certificate per 15 transitions; per-epoch overheads show here, batching gains must not."
        ),
        params=dict(
            accounts=3, funding=(3,), payers=3, warm_payers=3, epoch_len=4, submit_len=2,
            epochs=8, ft_counts=(0, 0, 0, 0), mst_depth=12,
        ),
        quick=dict(
            accounts=3, funding=(3,), payers=3, warm_payers=3, epoch_len=4, submit_len=2,
            epochs=2, ft_counts=(0, 0, 0, 0), mst_depth=12,
        ),
    ),
    Workload(
        name="mc_fleet",
        why=(
            "No Latus node, 1000 sidechains certifying in one window: core.cctp, "
            "core.cow, core.commitment, mainchain and snark.verify do all the work."
        ),
        params=dict(
            sidechains=1000, epoch_len=10, submit_len=8, certs_per_block=150,
            fts_per_tx=1000, bts_per_cert=8, epochs=14,
        ),
        quick=dict(
            sidechains=60, epoch_len=10, submit_len=8, certs_per_block=10,
            fts_per_tx=20, bts_per_cert=8, epochs=2,
        ),
    ),
    Workload(
        name="durable_nodes",
        why=(
            "Forger plus two validators on FileStore with a paged MST, blocks "
            "over the wire codec, a crash/restart per epoch: storage, wire, receive_block."
        ),
        params=dict(
            accounts=8, funding=(8,), payers=2, warm_payers=2, epoch_len=16, submit_len=2,
            epochs=1, ft_counts=(0,) * 16, mst_depth=20, page_size=1024, cache_pages=64,
        ),
        quick=dict(
            accounts=8, funding=(8,), payers=2, warm_payers=2, epoch_len=4, submit_len=2,
            epochs=1, ft_counts=(0,) * 4, mst_depth=20, page_size=1024, cache_pages=64,
        ),
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may worsen.  Timings
    #: on the 2-core reference box drift by 3-12 % (quartile distance over ten
    #: seeds) whatever the run length, so their bound is 25 %, not the
    #: 10-15 % the issue hoped for; see README.md, "Noise and bounds".
    bound: float
    workloads: tuple[str, ...]
    what: str
    #: Per-operation metrics name the child's sample list they are taken from:
    #: samples are pooled over the repeats and reduced to the median, or to
    #: ``percentile`` when set.  Per-run metrics are the median of the repeats.
    samples: str = ""
    percentile: int = 0

    @property
    def everywhere(self) -> bool:
        """Defined and non-zero on all four workloads, hence in BENCHMARK.json."""
        return self.workloads == ALL and self.bound > 0


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "process start to timed phase: imports, keys, registration, funding, cold first epoch"),
    EndToEnd("run_s", "s", "lower", 0.25, ALL,
             "timed phase minus loadgen_s"),
    EndToEnd("sc_tx_per_s", "1/s", "higher", 0.25, ALL,
             "sidechain transitions covered by MC-adopted certificates per run_s "
             "(mc_fleet: the FTs and BTs its certificates settle)"),
    EndToEnd("epoch_close_s", "s", "lower", 0.25, ALL,
             "median run clock of the driver step in which the certificate count rises "
             "(mc_fleet: window open to the last certificate of the epoch adopted)",
             samples="epoch_close_s"),
    EndToEnd("transfer_roundtrip_s", "s", "lower", 0.25, ALL,
             "median run clock from FT submitted to its BT payout spendable on the MC",
             samples="transfer_roundtrip_s"),
    EndToEnd("wcert_per_s", "1/s", "higher", 0.25, ALL,
             "certificates adopted per second of mine_block wall"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, ALL,
             "child ru_maxrss"),
    EndToEnd("mc_cert_block_p50_ms", "ms", "lower", 0.25, ("mc_fleet",),
             "mine_block wall over blocks carrying a full certificate quota, median",
             samples="mc_cert_block_ms"),
    EndToEnd("mc_cert_block_p95_ms", "ms", "lower", 0.25, ("mc_fleet",),
             "same, 95th percentile (ten samples beyond it once the three repeats are pooled)",
             samples="mc_cert_block_ms", percentile=95),
    EndToEnd("sc_block_commit_ms", "ms", "lower", 0.25, ("durable_nodes",),
             "median forged to encoded, decoded, validated and fsynced on both validators",
             samples="sc_block_commit_ms"),
    EndToEnd("restart_s", "s", "lower", 0.25, ("durable_nodes",),
             "median restart() until (height, tip, digest) equals the pre-crash value",
             samples="restart_s"),
    EndToEnd("disk_mb", "MB", "lower", 0.02, ("durable_nodes",),
             "bytes under all data dirs at the end; repeats exactly"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL,
             "ops_failed / ops_attempted over txs, certificates, deliveries, restarts; expected 0"),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: End-to-end metrics this layer metric should move.
    moves: tuple[str, ...]


def _group(prefix, moves, *members):
    return tuple(Layer(f"{prefix}.{n}", u, b, moves) for n, u, b in members)


_SC = ("sc_tx_per_s", "epoch_close_s")
_MC = ("wcert_per_s", "mc_cert_block_p50_ms", "mc_cert_block_p95_ms")
_NODE = ("epoch_close_s", "transfer_roundtrip_s", "sc_block_commit_ms")
_DISK = ("sc_block_commit_ms", "sc_tx_per_s", "disk_mb", "peak_rss_mb")

PER_LAYER = (
    *_group("crypto.signatures", _SC,
            ("verifies", "count", "lower"), ("cache_hit_ratio", "ratio", "higher"),
            ("busy_s", "s", "lower")),
    *_group("crypto.mimc", ("sc_tx_per_s", "wcert_per_s"),
            ("permutations", "count", "lower"), ("cache_hit_ratio", "ratio", "higher"),
            ("busy_s", "s", "lower")),
    *_group("crypto.merkle", ("sc_tx_per_s", "wcert_per_s"),
            ("set_leaves_calls", "count", "lower"), ("leaves_per_batch", "count", "higher"),
            ("busy_s", "s", "lower")),
    *_group("crypto.backend", ("sc_tx_per_s",),
            ("batch_calls", "count", "lower"), ("batch_elements", "count", "lower")),
    *_group("snark.prove", _SC,
            ("calls", "count", "lower"), ("constraints", "count", "lower"),
            ("busy_s", "s", "lower")),
    *_group("snark.template", _SC,
            ("hit_ratio", "ratio", "higher"), ("fallbacks", "count", "lower"),
            ("compiles", "count", "lower")),
    Layer("snark.template.compile_s", "s", "lower", ("setup_s",)),
    *_group("snark.recursive", _SC,
            ("base_s", "s", "lower"), ("merge_s", "s", "lower"),
            ("critical_path_depth", "count", "lower")),
    *_group("snark.verify", _MC,
            ("calls", "count", "lower"), ("busy_s", "s", "lower")),
    *_group("latus.state", _NODE,
            ("apply_calls", "count", "lower"), ("apply_s", "s", "lower"),
            ("copy_calls", "count", "lower"), ("copy_s", "s", "lower")),
    *_group("latus.mst", _NODE,
            ("apply_batch_calls", "count", "lower"), ("busy_s", "s", "lower")),
    *_group("latus.node", _NODE,
            ("forge_s", "s", "lower"), ("receive_s", "s", "lower"),
            ("apply_success_ratio", "ratio", "higher")),
    Layer("latus.proofs.prove_epoch_s", "s", "lower", _NODE),
    Layer("latus.wcert.build_s", "s", "lower", _NODE),
    *_group("core.cctp", ("wcert_per_s", "mc_cert_block_p95_ms"),
            ("wcert_accepted", "count", "higher"), ("wcert_rejected", "count", "lower"),
            ("process_certificate_s", "s", "lower"), ("process_ft_s", "s", "lower"),
            ("advance_s", "s", "lower"), ("copy_s", "s", "lower")),
    *_group("core.commitment", ("wcert_per_s", "mc_cert_block_p95_ms"),
            ("build_s", "s", "lower"), ("leaf_cache_hit_ratio", "ratio", "higher")),
    *_group("mainchain", _MC,
            ("blocks", "count", "higher"), ("txs.coin", "count", "higher"),
            ("txs.certificate", "count", "higher"),
            ("mempool.submit_s", "s", "lower"), ("mempool.depth_max", "count", "lower"),
            ("node.mine_block_s", "s", "lower"), ("chain.connect_block_s", "s", "lower"),
            ("tx.sig_verify_s", "s", "lower")),
    *_group("storage.wal", _DISK,
            ("records", "count", "lower"), ("bytes", "B", "lower"),
            ("append_s", "s", "lower"), ("commits", "count", "lower"),
            ("commit_s", "s", "lower")),
    *_group("storage.snapshot", _DISK,
            ("count", "count", "lower"), ("bytes", "B", "lower"), ("write_s", "s", "lower")),
    *_group("storage.pages", _DISK,
            ("hit_ratio", "ratio", "higher"), ("evictions", "count", "lower"),
            ("flushes", "count", "lower"), ("load_s", "s", "lower"),
            ("store_s", "s", "lower"), ("resident_pages", "count", "lower")),
    Layer("storage.recover_s", "s", "lower", ("restart_s",)),
    Layer("storage.recover_records", "count", "lower", ("restart_s",)),
    *_group("wire", ("sc_block_commit_ms",),
            ("blocks", "count", "lower"), ("bytes", "B", "lower"),
            ("encode_s", "s", "lower"), ("decode_s", "s", "lower")),
    *_group("network", ("run_s",),
            ("messages", "count", "lower"), ("deliver_s", "s", "lower")),
    Layer("scenarios.harness_s", "s", "lower", ("run_s",)),
    Layer("driver.unattributed_s", "s", "lower", ("run_s",)),
    # The interpreter's cyclic collector runs inside whatever span is open, so
    # its pauses are already in the self times above; this is their sum.
    Layer("runtime.gc.collections", "count", "lower", ("run_s", "mc_cert_block_p95_ms")),
    Layer("runtime.gc.pause_s", "s", "lower", ("run_s", "mc_cert_block_p95_ms")),
    # what the traced run itself cost, and how much of it the spans explain
    Layer("trace.spans", "count", "lower", ()),
    Layer("trace.run_s", "s", "lower", ()),
    Layer("trace.overhead_pct", "%", "lower", ()),
    Layer("trace.attributed_pct", "%", "higher", ()),
    # End-to-end metrics that exist on one workload only (or are 0 when
    # healthy) cannot be driver-gated; the driver still records them here,
    # measured on the untraced child of the traced invocation.
    *(
        Layer(f"e2e.{m.name}", m.unit, m.better, ())
        for m in END_TO_END
        if not m.everywhere
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def manifest() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/pipeline"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.everywhere
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
