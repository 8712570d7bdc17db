"""Span tracing installed from outside the program.

The traced run wraps the public entry points of every layer (listed in
:data:`ENTRY_POINTS`) with a recorder that notes name, start, end, parent and
the driver operation the call belongs to.  Nothing under ``src/`` is edited:
methods are replaced on their classes, module-level functions on every
``repro`` module that imported them by name.  Spans stay in memory and are
written out once, after the run.

A span's *self time* is its duration minus the time its child spans cover;
with one process and no threads the self times of all spans plus whatever the
driver spent outside any span add up to the run clock, which is what lets a
layer's share be read as "at most this much can be saved here".
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class SpanRecorder:
    """In-memory span store with a call stack (single-threaded by design)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: [name id, start, end, parent span index or -1, operation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = False
        self.operation = 0
        #: name -> summed value of the wrapper's ``measure`` callback
        self.measured: dict[str, float] = defaultdict(float)
        #: name -> calls that raised
        self.raised: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, measure=None):
        """``fn`` with a span recorded around every call while recording.

        ``measure(result, args)`` may return a number to accumulate under
        ``name`` (bytes encoded, constraints proved, leaves per batch).
        """
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [nid, _now(), 0.0, stack[-1] if stack else -1, self.operation]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                span[2] = _now()
                stack.pop()
            if measure is not None:
                self.measured[name] += measure(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def paused(self):
        """Stop recording (load generation calls into wrapped code too)."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (also by caller)."""
        child_time = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "self_s_under": {}}
            for name in self.names
        }
        for index, (nid, start, end, parent, _) in enumerate(self.spans):
            entry = out[self.names[nid]]
            self_s = end - start - child_time[index]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            # the same self time, split by which span made the call
            caller = self.names[self.spans[parent][0]] if parent >= 0 else "driver"
            under = entry["self_s_under"]
            under[caller] = under.get(caller, 0.0) + self_s
        for name, entry in out.items():
            entry["measured"] = self.measured.get(name, 0.0)
            entry["raised"] = self.raised.get(name, 0)
        return out

    def dump(self, path, origin: float, header: dict) -> None:
        """Write every span, times in microseconds since ``origin``."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_us", "end_us", "parent", "operation"],
                    "names": self.names,
                    "spans": [
                        [nid, round((s - origin) * 1e6), round((e - origin) * 1e6), p, op]
                        for nid, s, e, p, op in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def _size_of_result(result, args):
    return len(result)


def _size_of_arg(result, args):
    return len(args[-1])


#: (import path, attribute, span name, measure) — one row per public entry
#: point.  A dotted attribute names a method on a class of that module.
ENTRY_POINTS = (
    ("repro.crypto.signatures", "PublicKey.verify", "crypto.signatures.verify", None),
    ("repro.crypto.mimc", "mimc_compress", "crypto.mimc.compress", None),
    ("repro.crypto.mimc", "mimc_compress_many", "crypto.mimc.compress_many", None),
    ("repro.crypto.fixed_merkle", "FixedMerkleTree.set_leaves", "crypto.merkle.set_leaves",
     lambda result, args: len(args[1])),
    ("repro.snark.proving", "prove_with_stats", "snark.prove",
     lambda result, args: result.stats.num_constraints),
    ("repro.snark.proving", "verify", "snark.verify", None),
    ("repro.snark.proving", "verify_many", "snark.verify_many", None),
    ("repro.snark.recursive", "RecursiveComposer.prove_base", "snark.recursive.base", None),
    ("repro.snark.recursive", "RecursiveComposer.merge", "snark.recursive.merge", None),
    ("repro.latus.proofs", "EpochProver.prove_epoch", "latus.proofs.prove_epoch", None),
    ("repro.latus.wcert", "WithdrawalCertificateBuilder.build", "latus.wcert.build", None),
    ("repro.latus.state", "LatusState.apply", "latus.state.apply", None),
    ("repro.latus.state", "LatusState.copy", "latus.state.copy", None),
    ("repro.latus.mst", "MerkleStateTree.apply_batch", "latus.mst.apply_batch", None),
    ("repro.latus.node", "LatusNode.sync", "latus.node.sync", None),
    ("repro.latus.node", "LatusNode.receive_block", "latus.node.receive_block", None),
    ("repro.latus.node", "LatusNode.submit_transaction", "latus.node.submit_transaction", None),
    ("repro.core.cctp", "CctpState.process_certificate", "core.cctp.process_certificate", None),
    ("repro.core.cctp", "CctpState.process_forward_transfer", "core.cctp.process_ft", None),
    ("repro.core.cctp", "CctpState.advance_to_height", "core.cctp.advance", None),
    ("repro.core.cctp", "CctpState.copy", "core.cctp.copy", None),
    ("repro.core.commitment", "build_commitment", "core.commitment.build", None),
    ("repro.mainchain.node", "MainchainNode.submit_transaction", "mainchain.mempool.submit", None),
    ("repro.mainchain.node", "MainchainNode.mine_block", "mainchain.node.mine_block", None),
    ("repro.mainchain.chain", "MainchainState.connect_block", "mainchain.chain.connect_block", None),
    ("repro.mainchain.transaction", "verify_input_signatures", "mainchain.tx.sig_verify", None),
    ("repro.storage.filestore", "FileStore.stage", "storage.wal.stage",
     lambda result, args: len(args[2])),
    ("repro.storage.filestore", "FileStore.append", "storage.wal.append",
     lambda result, args: len(args[2])),
    ("repro.storage.filestore", "FileStore.commit", "storage.wal.commit", None),
    ("repro.storage.filestore", "FileStore.write_snapshot", "storage.snapshot.write",
     lambda result, args: sum(len(v) for v in args[2].values())),
    ("repro.storage.filestore", "FileStore.records", "storage.wal.read",
     lambda result, args: len(result)),
    # the paged store's coarse entry points carry the page encode/decode work;
    # its per-node get/set stay inside whichever Merkle call made them
    ("repro.storage.pages", "PagedNodeStore.prefetch", "storage.pages.prefetch", None),
    ("repro.storage.pages", "PagedNodeStore.flush", "storage.pages.flush", None),
    ("repro.storage.pages", "PagedNodeStore.copy", "storage.pages.copy", None),
    ("repro.storage.pages", "FilePageBacking.load", "storage.pages.load", None),
    ("repro.storage.pages", "FilePageBacking.store", "storage.pages.store", None),
    ("repro.storage.pages", "FilePageBacking.sync", "storage.pages.sync", None),
    ("repro.lifecycle", "NodeLifecycle.restart", "storage.recover", None),
    ("repro.wire", "encode_sidechain_block", "wire.encode", _size_of_result),
    ("repro.wire", "decode_sidechain_block", "wire.decode", _size_of_arg),
    ("repro.wire", "decode_latus_transaction", "wire.decode", _size_of_arg),
    ("repro.wire", "decode_withdrawal_certificate", "wire.decode", _size_of_arg),
    ("repro.network.simulator", "NetworkSimulator.advance", "network.deliver", None),
    ("repro.scenarios.harness", "ZendooHarness.mine", "scenarios.harness", None),
)


def install(recorder: SpanRecorder) -> None:
    """Replace every entry point with its traced wrapper.

    Call after the program's modules are imported: a function imported by
    name (``from repro.crypto.mimc import mimc_compress``) is a second
    reference that has to be replaced too.
    """
    import importlib

    for module_name, attribute, span_name, measure in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, recorder.wrap(owner.__dict__[method], span_name, measure))
            continue
        original = getattr(module, attribute)
        wrapped = recorder.wrap(original, span_name, measure)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
