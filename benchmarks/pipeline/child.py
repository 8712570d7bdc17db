"""One run: set up, time, check, report — in a process of its own.

Template retirement, the MiMC and signature memo caches and ``ru_maxrss`` are
process-wide, so every run of a workload is a fresh interpreter.  The parent
(:mod:`benchmarks.pipeline.runner`) starts this module with a JSON spec and
reads one JSON result from the last line of its standard output.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import time
from pathlib import Path

from benchmarks.pipeline import trace
from benchmarks.pipeline.clock import RunClock


def _time_calls(owner, method: str, clock: RunClock) -> list[float]:
    """Wall seconds of every ``owner.method`` call made while the clock runs.

    The one measurement the untraced runs need from inside the harness:
    ``wcert_per_s`` is defined over ``mine_block`` wall, and
    ``ZendooHarness.mine`` calls it out of the driver's sight.
    """
    walls: list[float] = []
    original = owner.__dict__[method]

    def timed(*args, **kwargs):
        began = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            if clock.running:
                walls.append(time.perf_counter() - began)

    setattr(owner, method, timed)
    return walls


def _watch_collector(clock: RunClock) -> dict:
    """Count and time the cyclic collector's runs while the clock runs."""
    seen = {"collections": 0, "pause_s": 0.0, "began": 0.0}

    def on_gc(phase, info):
        if phase == "start":
            seen["began"] = time.perf_counter()
        elif clock.running:
            seen["collections"] += 1
            seen["pause_s"] += time.perf_counter() - seen["began"]

    gc.callbacks.append(on_gc)
    return seen


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _layer_metrics(recorder, delta, run, clock, collector, compile_s, resident_pages) -> dict:
    """The per-layer table from span self times and registry deltas."""
    spans = recorder.totals()

    def self_s(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def measured(*names):
        return sum(spans[n]["measured"] for n in names if n in spans)

    def under(name, caller):
        return spans.get(name, {}).get("self_s_under", {}).get(caller, 0.0)

    def d(key):
        return delta.get(key, 0.0)

    attributed = sum(entry["self_s"] for entry in spans.values())
    mimc_hits, mimc_misses = d("repro_mimc_cache_hits_total"), d("repro_mimc_cache_misses_total")
    template_hits = d("repro_snark_template_hits_total")
    template_total = (
        template_hits
        + d("repro_snark_template_misses_total")
        + d("repro_snark_template_fallbacks_total")
    )
    leaf_hits = d('repro_commitment_leaf_cache_total{result="hit"}')
    leaf_total = leaf_hits + d('repro_commitment_leaf_cache_total{result="miss"}')
    page_hits, page_misses = d("repro_mst_page_hits_total"), d("repro_mst_page_misses_total")
    applies = calls("latus.state.apply")
    set_leaves = calls("crypto.merkle.set_leaves")
    return {
        "crypto.signatures.verifies": d("repro_signature_verifies_total"),
        "crypto.signatures.cache_hit_ratio": _ratio(
            d("repro_signature_cache_hits_total"), d("repro_signature_verifies_total")
        ),
        "crypto.signatures.busy_s": self_s("crypto.signatures.verify"),
        "crypto.mimc.permutations": d("repro_mimc_permutations_total"),
        "crypto.mimc.cache_hit_ratio": _ratio(mimc_hits, mimc_hits + mimc_misses),
        "crypto.mimc.busy_s": self_s("crypto.mimc.compress", "crypto.mimc.compress_many"),
        "crypto.merkle.set_leaves_calls": set_leaves,
        "crypto.merkle.leaves_per_batch": _ratio(measured("crypto.merkle.set_leaves"), set_leaves),
        "crypto.merkle.busy_s": self_s("crypto.merkle.set_leaves"),
        "crypto.backend.batch_calls": d("repro_field_batch_calls_total"),
        "crypto.backend.batch_elements": d("repro_field_batch_elements_total"),
        "snark.prove.calls": calls("snark.prove"),
        "snark.prove.constraints": measured("snark.prove"),
        "snark.prove.busy_s": self_s("snark.prove"),
        "snark.template.hit_ratio": _ratio(template_hits, template_total),
        "snark.template.fallbacks": d("repro_snark_template_fallbacks_total"),
        "snark.template.compiles": d("repro_snark_template_compiles_total"),
        "snark.template.compile_s": compile_s,
        # Base and Merge are where snark.prove is called from; its self time
        # under each is the cost of that proof kind (the rest is the WCert circuit)
        "snark.recursive.base_s": self_s("snark.recursive.base")
        + under("snark.prove", "snark.recursive.base"),
        "snark.recursive.merge_s": self_s("snark.recursive.merge")
        + under("snark.prove", "snark.recursive.merge"),
        "snark.recursive.critical_path_depth": getattr(run, "critical_path_depth", 0),
        "snark.verify.calls": calls("snark.verify"),
        "snark.verify.busy_s": self_s("snark.verify", "snark.verify_many"),
        "latus.state.apply_calls": applies,
        "latus.state.apply_s": self_s("latus.state.apply"),
        "latus.state.copy_calls": calls("latus.state.copy"),
        "latus.state.copy_s": self_s("latus.state.copy"),
        "latus.mst.apply_batch_calls": calls("latus.mst.apply_batch"),
        "latus.mst.busy_s": self_s("latus.mst.apply_batch"),
        "latus.node.forge_s": self_s("latus.node.sync", "latus.node.submit_transaction"),
        "latus.node.receive_s": self_s("latus.node.receive_block"),
        "latus.node.apply_success_ratio": _ratio(
            applies - spans.get("latus.state.apply", {}).get("raised", 0), applies
        ),
        "latus.proofs.prove_epoch_s": self_s("latus.proofs.prove_epoch"),
        "latus.wcert.build_s": self_s("latus.wcert.build"),
        "core.cctp.wcert_accepted": d('repro_cctp_wcert_total{result="accepted"}'),
        "core.cctp.wcert_rejected": d('repro_cctp_wcert_total{result="rejected"}'),
        "core.cctp.process_certificate_s": self_s("core.cctp.process_certificate"),
        "core.cctp.process_ft_s": self_s("core.cctp.process_ft"),
        "core.cctp.advance_s": self_s("core.cctp.advance"),
        "core.cctp.copy_s": self_s("core.cctp.copy"),
        "core.commitment.build_s": self_s("core.commitment.build"),
        "core.commitment.leaf_cache_hit_ratio": _ratio(leaf_hits, leaf_total),
        "mainchain.blocks": d("repro_mainchain_blocks_connected_total"),
        "mainchain.txs.coin": d('repro_mainchain_txs_connected_total{type="coin"}'),
        "mainchain.txs.certificate": d('repro_mainchain_txs_connected_total{type="certificate"}'),
        "mainchain.mempool.submit_s": self_s("mainchain.mempool.submit"),
        "mainchain.mempool.depth_max": run.mempool_depth_max,
        "mainchain.node.mine_block_s": self_s("mainchain.node.mine_block"),
        "mainchain.chain.connect_block_s": self_s("mainchain.chain.connect_block"),
        # inclusive, not self: the mainchain's share of crypto.signatures
        "mainchain.tx.sig_verify_s": spans.get("mainchain.tx.sig_verify", {}).get("total_s", 0.0),
        "storage.wal.records": d("repro_storage_wal_records_total"),
        "storage.wal.bytes": measured("storage.wal.stage", "storage.wal.append"),
        "storage.wal.append_s": self_s("storage.wal.stage", "storage.wal.append"),
        "storage.wal.commits": calls("storage.wal.commit"),
        "storage.wal.commit_s": self_s("storage.wal.commit"),
        "storage.snapshot.count": d("repro_storage_snapshots_total"),
        "storage.snapshot.bytes": measured("storage.snapshot.write"),
        "storage.snapshot.write_s": self_s("storage.snapshot.write"),
        "storage.pages.hit_ratio": _ratio(page_hits, page_hits + page_misses),
        "storage.pages.evictions": d("repro_mst_page_evictions_total"),
        "storage.pages.flushes": d("repro_mst_page_flushes_total"),
        "storage.pages.load_s": self_s("storage.pages.load", "storage.pages.prefetch"),
        "storage.pages.store_s": self_s(
            "storage.pages.store", "storage.pages.sync", "storage.pages.flush", "storage.pages.copy"
        ),
        "storage.pages.resident_pages": resident_pages,
        "storage.recover_s": self_s("storage.recover", "storage.wal.read"),
        "storage.recover_records": measured("storage.wal.read"),
        "wire.blocks": calls("wire.encode"),
        "wire.bytes": measured("wire.encode", "wire.decode"),
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_s": self_s("wire.decode"),
        "network.messages": d('repro_network_messages_total{kind="broadcast"}')
        + d('repro_network_messages_total{kind="send"}'),
        "network.deliver_s": self_s("network.deliver"),
        "scenarios.harness_s": self_s("scenarios.harness"),
        "driver.unattributed_s": clock.run_s - attributed,
        "runtime.gc.collections": collector["collections"],
        "runtime.gc.pause_s": collector["pause_s"],
        "trace.spans": len(recorder.spans),
        "trace.run_s": clock.run_s,
        "trace.attributed_pct": 100.0 * _ratio(attributed, clock.run_s),
    }


def run(spec: dict) -> dict:
    """Execute one run described by ``spec``; returns the result record."""
    from repro import observability
    from repro.crypto import backend
    from repro.mainchain.node import MainchainNode
    from repro.observability import export

    from benchmarks.pipeline.fleet_run import FleetRun
    from benchmarks.pipeline.latus_run import LatusRun

    name, params = spec["workload"], spec["params"]
    recorder = trace.SpanRecorder() if spec["traced"] else None
    clock = RunClock(recorder)
    mine_walls = _time_calls(MainchainNode, "mine_block", clock)
    collector = None
    if recorder is not None:
        trace.install(recorder)
        collector = _watch_collector(clock)

    data_root = None
    if name == "durable_nodes":
        data_root = Path(spec["data_root"])
        data_root.mkdir(parents=True)
    try:
        if name == "mc_fleet":
            run_ = FleetRun(params, spec["seed"], clock)
        else:
            run_ = LatusRun(params, spec["seed"], clock, data_root)
        run_.setup()
        registry = observability.registry()
        before = export.flatten(registry)
        setup_s = time.monotonic() - spec["spawned_at"]

        clock.start()
        run_.run()
        clock.stop()

        after = export.flatten(registry)
        run_.count_certificate_outcomes()
        checks = run_.checks()
        samples = run_.samples
        covered = run_.covered_transitions()
        adopted = run_.certificates_adopted()
        mine_wall = sum(mine_walls)
        result = {
            "workload": name,
            "seed": spec["seed"],
            "traced": spec["traced"],
            "params": params,
            "field_backend": backend.active().name,
            "timing": {
                "setup_s": setup_s,
                "run_s": clock.run_s,
                "loadgen_s": clock.loadgen_s,
                "mine_block_wall_s": mine_wall,
            },
            "counts": {
                "covered_transitions": covered,
                "certificates_adopted": adopted,
                "ops_attempted": run_.attempted,
                "ops_failed": run_.failed,
            },
            "values": {
                "setup_s": setup_s,
                "run_s": clock.run_s,
                "sc_tx_per_s": covered / clock.run_s,
                "wcert_per_s": adopted / mine_wall,
                "disk_mb": run_.disk_bytes() / 1e6,
                "failed_share": run_.failed / max(1, run_.attempted),
            },
            "samples": samples,
            "checks": checks,
            "fingerprint": run_.fingerprint(),
        }
        if recorder is not None:
            delta = {key: value - before.get(key, 0.0) for key, value in after.items()}
            result["layers"] = _layer_metrics(
                recorder,
                delta,
                run_,
                clock,
                collector,
                compile_s=after.get('repro_span_seconds_sum{span="snark/template_compile"}', 0.0),
                resident_pages=after.get("repro_mst_resident_pages", 0.0),
            )
            result["span_totals"] = recorder.totals()
            recorder.dump(
                spec["trace_path"],
                origin=clock.started_at,
                header={"workload": name, "seed": spec["seed"], "run_s": clock.run_s},
            )
        run_.close()
    finally:
        if data_root is not None:
            shutil.rmtree(data_root, ignore_errors=True)
    result["values"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(spec_json: str) -> int:
    result = run(json.loads(spec_json))
    print(json.dumps(result))
    return 0
