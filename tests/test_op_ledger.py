"""The operation ledger: counted costs a change may only lower.

Each row of :data:`CEILINGS` is a count measured on a fixed run; a change
that lowers a count lowers its row in the same diff, and no change raises
one.  A failing row prints the ceiling against the count it measured.

Mainchain rows: what the MC state keeps alive for the cyclic garbage
collector.  The UTXO set and the pending-payout map hold their coins and
payouts as tuples of atoms under byte keys, which the collector stops
tracking after its first pass over them, so no collection walks a
coin or a payout twice.  The CCTP state of a block is one registry map of
immutable sidechain entries, one nullifier set, the safeguard balances and
the ceasing-deadline index: four copy-on-write containers (five objects, as
a ``CowSet`` wraps a ``CowDict``) per block, however many entries change.

Each row of :data:`GROWTH` is one count measured on the same fixed builder
at two sizes, n and 2n: what the paper's scalability claim (§4.1.2: a small,
constant mainchain cost per sidechain and per certificate) says must not
grow with the chain's length, a sidechain's age or the number of
sidechains.  The counts are exact; a change that moves one restates both
columns, and the per-unit count at 2n stays at most the count at n.
"""

from __future__ import annotations

import gc
from functools import lru_cache
from typing import NamedTuple

from repro.core.cctp import CertificateRecord
from repro.core.commitment import SidechainTxCommitmentTree
from repro.core.cow import CowDict, CowSet
from repro.core.transfers import WithdrawalCertificate, derive_ledger_id
from repro.mainchain.chain import REORG_HORIZON
from repro.mainchain.node import MainchainNode
from repro.mainchain.transaction import CertificateTx, SidechainDeclarationTx
from repro.snark import proving
from tests.test_cctp import PK, make_config
from tests.test_mainchain_state_bytes import MINER, PARAMS, WIDE, fixed_chain

#: name -> ceiling, measured on the named fixed run.
CEILINGS = {
    # fixed_chain(): keys and values of the UTXO set after a collection
    "mc.utxo.gc_tracked": 0,
    # fixed_chain(): keys, values and value parts of the pending payouts
    "mc.pending_payouts.gc_tracked": 0,
    # fixed_chain(): CowDict/CowSet instances reachable from the CCTP states
    # of its 15 block records (genesis to 14)
    "mc.cctp.cow_containers": 75,
    # resubmitted_certificate_block(): proof verifies of the block that
    # refuses an adopted certificate mined again inside its window; the
    # quality rule refuses it before rule 4 looks at the proof
    "mc.wcert.resubmitted_verifies": 0,
}


#: Epoch counts (n, 2n) of :func:`growth_chain`.
GROWTH_EPOCHS = (12, 24)

#: Sidechain counts (N, 2N) of :func:`growth_chain`, at the shorter length.
GROWTH_SIDECHAIN_COUNTS = (3, 6)

#: name -> exact counts at (n, 2n) epochs, or (N, 2N) sidechains, of
#: :func:`growth_chain`.
GROWTH = {
    # block records that keep a validated state: at most REORG_HORIZON + 1
    # (33 with a horizon of 32) at either length
    "mc.growth.kept_states": (33, 33),
    # certificate-map entries reachable from the kept states: references
    # to a CertificateRecord held by a reachable object (a dict slot, an
    # entry's latest record, a record's link to the epoch before); per
    # adopted certificate this is flat, not growing with the sidechain's age
    "mc.growth.certificate_map_entries": (69, 96),
    # against sidechain count: proof verifies over the whole build, one per
    # adopted certificate (36 and 72 certificates)
    "mc.growth.verifies_per_certificate": (36, 72),
    # against sidechain count: leaves of every commitment tree the miner
    # built, one per sidechain active in a block, none for the quiet ones
    "mc.growth.commitment_leaves_per_block": (36, 72),
}

#: Sidechains of :func:`growth_chain` for the age rows, each certifying
#: every epoch.
GROWTH_SIDECHAINS = 3


class GrowthRun(NamedTuple):
    """A built :func:`growth_chain` and the work its build did."""

    node: MainchainNode
    #: ``proving.verify`` calls, batched and inline.
    verifies: int
    #: Leaves of every ``SidechainTxCommitmentTree`` built.
    commitment_leaves: int


def _growth_certificate(node: MainchainNode, config, epoch: int) -> CertificateTx:
    schedule = config.schedule
    state = node.state
    h_prev = state.block_hash_at(schedule.last_height(epoch - 1)) if epoch else b"\x00" * 32
    h_last = state.block_hash_at(schedule.last_height(epoch))
    draft = WithdrawalCertificate(config.ledger_id, epoch, 1, (), (), proving.Proof(bytes(96)))
    proof = proving.prove(PK, draft.public_input(h_prev, h_last), None)
    return CertificateTx(wcert=WithdrawalCertificate(config.ledger_id, epoch, 1, (), (), proof))


@lru_cache(maxsize=None)
def growth_chain(epochs: int, sidechains: int = GROWTH_SIDECHAINS) -> GrowthRun:
    """``sidechains`` sidechains (epochs of 4 blocks from height 3, windows
    of 2) certified in every epoch up to ``epochs``; mined up to the block
    adopting the last certificates.  The caller must not mutate the node."""
    configs = [
        make_config(ledger_id=derive_ledger_id(f"growth/{k}"), start_block=3)
        for k in range(sidechains)
    ]
    work = {"verifies": 0, "leaves": 0}
    verify, tree_init = proving.verify, SidechainTxCommitmentTree.__init__

    def counted_verify(*args):
        work["verifies"] += 1
        return verify(*args)

    def counted_tree(tree, commitments):
        tree_init(tree, commitments)
        work["leaves"] += tree.leaf_count

    proving.verify, SidechainTxCommitmentTree.__init__ = counted_verify, counted_tree
    try:
        node = MainchainNode(PARAMS)
        for config in configs:
            node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_block(MINER.address)  # 1
        for epoch in range(epochs):
            first_submission = configs[0].schedule.submission_window(epoch).start
            node.mine_blocks(MINER.address, first_submission - 1 - node.height)
            for config in configs:
                node.submit_transaction(_growth_certificate(node, config, epoch))
            node.mine_block(MINER.address)
    finally:
        proving.verify, SidechainTxCommitmentTree.__init__ = verify, tree_init
    return GrowthRun(node, work["verifies"], work["leaves"])


def _adopted(node: MainchainNode) -> int:
    return sum(len(entry.certificates) for _, entry in node.state.cctp.sidechains.items())


def _tracked(objects) -> int:
    return sum(1 for obj in objects if gc.is_tracked(obj))


def _walk(roots):
    """Each distinct object reachable from ``roots`` through
    :func:`gc.get_referents`, with its referents, not descending into classes."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        referents = gc.get_referents(obj)
        yield obj, referents
        stack.extend(referents)


def _reachable(roots, kind) -> int:
    """Distinct instances of ``kind`` reachable from ``roots``."""
    return sum(isinstance(obj, kind) for obj, _ in _walk(roots))


def _certificate_map_entries(states) -> int:
    """References to a :class:`CertificateRecord` held by the distinct
    objects reachable from ``states``."""
    return sum(isinstance(ref, CertificateRecord) for _, refs in _walk(states) for ref in refs)


def _check(measured: dict[str, int]) -> None:
    over = {name: (CEILINGS[name], n) for name, n in measured.items() if n > CEILINGS[name]}
    assert not over, f"ceiling, measured: {over}"


def test_mainchain_state_holds_no_tracked_object():
    """The fixed chain matured a certificate of ``WIDE`` BTs and holds one
    more pending; after a collection neither map keeps a tracked object."""
    state = fixed_chain().state
    gc.collect()
    coins, pending = state.utxos._coins, state.pending_payouts
    assert len(coins) > WIDE and len(pending) == 1
    payout_parts = [part for item in pending.items() for part in (*item, *item[1])]
    _check(
        {
            "mc.utxo.gc_tracked": _tracked([*coins.keys(), *coins.values()]),
            "mc.pending_payouts.gc_tracked": _tracked(payout_parts),
        }
    )


def test_cctp_states_share_their_entries_and_nullifiers():
    """Every block record keeps its own CCTP state; the entries and
    nullifiers they share add no container of their own."""
    records = fixed_chain().chain._records.values()
    states = [record.state.cctp for record in records if record.state is not None]
    assert len(states) == 15
    _check({"mc.cctp.cow_containers": _reachable(states, (CowDict, CowSet))})


def test_mainchain_cost_does_not_grow_with_age():
    """Twice the epochs keep the same number of block states, and no more
    certificate-map entries per adopted certificate."""
    measured: dict[str, list[int]] = {
        "mc.growth.kept_states": [],
        "mc.growth.certificate_map_entries": [],
    }
    adopted = []
    for epochs in GROWTH_EPOCHS:
        node = growth_chain(epochs).node
        states = [r.state for r in node.chain._records.values() if r.state is not None]
        adopted.append(_adopted(node))
        measured["mc.growth.kept_states"].append(len(states))
        measured["mc.growth.certificate_map_entries"].append(_certificate_map_entries(states))
    assert adopted == [GROWTH_SIDECHAINS * epochs for epochs in GROWTH_EPOCHS]
    assert {name: tuple(counts) for name, counts in measured.items()} == {
        name: GROWTH[name] for name in measured
    }
    kept, entries = measured["mc.growth.kept_states"], measured["mc.growth.certificate_map_entries"]
    assert max(kept) <= REORG_HORIZON + 1
    assert entries[1] / adopted[1] <= entries[0] / adopted[0]


def test_mainchain_cost_per_certificate_does_not_grow_with_sidechains():
    """Twice the sidechains: no more proof verifies per certificate, and no
    more commitment leaves per block and active sidechain."""
    epochs = GROWTH_EPOCHS[0]
    runs = [growth_chain(epochs, n) for n in GROWTH_SIDECHAIN_COUNTS]
    adopted = [_adopted(run.node) for run in runs]
    assert adopted == [n * epochs for n in GROWTH_SIDECHAIN_COUNTS]
    measured = {
        "mc.growth.verifies_per_certificate": [run.verifies for run in runs],
        "mc.growth.commitment_leaves_per_block": [run.commitment_leaves for run in runs],
    }
    assert {name: tuple(counts) for name, counts in measured.items()} == {
        name: GROWTH[name] for name in measured
    }
    for counts in measured.values():
        assert counts[1] / adopted[1] <= counts[0] / adopted[0]


def test_a_resubmitted_certificate_costs_no_verify(monkeypatch):
    """An adopted certificate mined again inside its window is dropped from
    the template by the quality rule, before rule 4 verifies its proof."""
    config = make_config(ledger_id=derive_ledger_id("resubmitted"), start_block=3)
    window = config.schedule.submission_window(0)
    node = MainchainNode(PARAMS)
    node.submit_transaction(SidechainDeclarationTx(config=config))
    node.mine_blocks(MINER.address, window.start - 1)
    certificate = _growth_certificate(node, config, 0)
    node.submit_transaction(certificate)
    node.mine_block(MINER.address)
    assert _adopted(node) == 1
    node.submit_transaction(certificate)
    verifies, verify = [0], proving.verify

    def counted_verify(*args):
        verifies[0] += 1
        return verify(*args)

    monkeypatch.setattr(proving, "verify", counted_verify)
    block = node.mine_block(MINER.address)
    assert block.height in window and certificate not in block.transactions
    assert _adopted(node) == 1 and certificate.txid not in node.mempool
    _check({"mc.wcert.resubmitted_verifies": verifies[0]})
