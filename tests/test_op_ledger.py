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

The history-bytes rows count what a durable node writes to its store per
block, the mainchain's live-state section (``mc/state``) aside; a Latus
node writes no snapshot.  The
store's log keeps each block's record once, so per block they are flat.
Before the log became the archive, every snapshot rewrote the whole history
(``mc/blocks``; ``latus/blocks``, ``latus/anchors``, ``latus/submitted``)
and the same builders measured 531,392 and 1,955,712 bytes at heights 256
and 512 (2,076 and 3,820 per block), and 610,926 and 2,256,958 bytes at 16
and 32 epochs (38,183 and 70,530 per epoch): about twice per block at each
doubling.

The Latus transition rows count the work of a fixed run of payments on an
MST holding n and 2n other leaves: native MiMC permutations and real (not
cached) signature verifies.  The fixed-depth tree makes both independent of
occupancy, which every sibling subtree of the payments' slots being
occupied at both sizes turns into equal counts.
"""

from __future__ import annotations

import gc
import tempfile
from functools import lru_cache
from typing import NamedTuple

from repro import observability
from repro.core.cctp import CertificateRecord
from repro.core.commitment import SidechainTxCommitmentTree
from repro.core.cow import CowDict, CowSet
from repro.core.transfers import BackwardTransfer, WithdrawalCertificate, derive_ledger_id
from repro.crypto import mimc, signatures
from repro.crypto.keys import KeyPair
from repro.latus.params import LatusParams
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.mainchain.chain import REORG_HORIZON
from repro.mainchain.node import MainchainNode
from repro.mainchain.transaction import (
    CertificateTx,
    SidechainDeclarationTx,
    TransactionBuilder,
)
from repro.scenarios import ZendooHarness
from repro.snark import proving
from repro.storage import FileStore
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
    # against sidechain count, certificates of GROWTH_BTS backward transfers
    # (36 and 72): tuple elements written into the ceasing-deadline and
    # payout-maturity slots, all sidechains sharing each height; a slot is
    # a cons cell, so each write is 2 elements (one per registration, two
    # per certificate) however many ids the slot already holds
    "mc.growth.slot_elements_per_certificate": (150, 300),
    # against height, at HISTORY_HEIGHTS: bytes a durable node writes for
    # empty blocks, mc/state aside; 216 per block (a block record, and a
    # 32-byte tip per 16-block snapshot)
    "mc.growth.history_bytes": (55_296, 110_592),
    # against certified epochs, at HISTORY_EPOCHS: bytes a durable paged
    # node writes for epochs of empty blocks; 4,132 and
    # 4,079 per epoch (four block records and one anchor record)
    "latus.growth.history_bytes": (66_110, 130_526),
    # against MST occupancy, at TRANSITION_OCCUPANCY: native MiMC
    # permutations of TRANSITION_PAYMENTS payments, 36.6 per payment
    "latus.growth.permutations_per_transition": (293, 293),
    # against MST occupancy: real signature verifies, one per payment input
    "latus.growth.verifies_per_transition": (8, 8),
}

#: Heights (n, 2n) of :func:`mc_history_bytes`.
HISTORY_HEIGHTS = (256, 512)
#: Certified epochs (n, 2n) of :func:`latus_history_bytes`.
HISTORY_EPOCHS = (16, 32)
#: Other leaves (n, 2n) in the MST of :func:`transition_work`.
TRANSITION_OCCUPANCY = (256, 512)
#: Payments :func:`transition_work` measures, one input and two outputs each.
TRANSITION_PAYMENTS = 8
#: Depth of the MST of :func:`transition_work`.
TRANSITION_DEPTH = 12

#: Sidechains of :func:`growth_chain` for the age rows, each certifying
#: every epoch.
GROWTH_SIDECHAINS = 3

#: Backward transfers per certificate of the slot-elements row's builds.
GROWTH_BTS = 2


class GrowthRun(NamedTuple):
    """A built :func:`growth_chain` and the work its build did."""

    node: MainchainNode
    #: ``proving.verify`` calls, batched and inline.
    verifies: int
    #: Leaves of every ``SidechainTxCommitmentTree`` built.
    commitment_leaves: int
    #: Tuple elements written into the height-keyed slot maps.
    slot_elements: int


def _growth_certificate(node: MainchainNode, config, epoch: int, bts: int = 0) -> CertificateTx:
    schedule = config.schedule
    state = node.state
    h_prev = state.block_hash_at(schedule.last_height(epoch - 1)) if epoch else b"\x00" * 32
    h_last = state.block_hash_at(schedule.last_height(epoch))
    bt_list = tuple(BackwardTransfer(MINER.address, 1 + k) for k in range(bts))
    draft = WithdrawalCertificate(config.ledger_id, epoch, 1, bt_list, (), proving.Proof(bytes(96)))
    proof = proving.prove(PK, draft.public_input(h_prev, h_last), None)
    return CertificateTx(wcert=WithdrawalCertificate(config.ledger_id, epoch, 1, bt_list, (), proof))


@lru_cache(maxsize=None)
def growth_chain(epochs: int, sidechains: int = GROWTH_SIDECHAINS, bts: int = 0) -> GrowthRun:
    """``sidechains`` sidechains (epochs of 4 blocks from height 3, windows
    of 2) certified in every epoch up to ``epochs``; mined up to the block
    adopting the last certificates.  With ``bts``, block 4 funds every
    sidechain and each certificate carries ``bts`` backward transfers.  The
    caller must not mutate the node."""
    configs = [
        make_config(ledger_id=derive_ledger_id(f"growth/{k}"), start_block=3)
        for k in range(sidechains)
    ]
    work = {"verifies": 0, "leaves": 0, "slot_elements": 0}
    verify, tree_init = proving.verify, SidechainTxCommitmentTree.__init__
    setitem = CowDict.__setitem__

    def counted_verify(*args):
        work["verifies"] += 1
        return verify(*args)

    def counted_tree(tree, commitments):
        tree_init(tree, commitments)
        work["leaves"] += tree.leaf_count

    def counted_setitem(cow, key, value):
        # the only height-keyed maps of tuples in a mainchain state are the
        # ceasing-deadline and payout-maturity slots
        if isinstance(key, int) and isinstance(value, tuple):
            work["slot_elements"] += len(value)
        setitem(cow, key, value)

    proving.verify, SidechainTxCommitmentTree.__init__ = counted_verify, counted_tree
    CowDict.__setitem__ = counted_setitem
    try:
        node = MainchainNode(PARAMS)
        for config in configs:
            node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_block(MINER.address)  # 1
        if bts:
            node.mine_blocks(MINER.address, 2)  # block 1's coinbase matures; sidechains start
            coinbase = next(op for op, coin in node.state.utxos.coins_of(MINER.address)
                            if coin.created_height == 1)
            funding = TransactionBuilder().spend(coinbase, MINER, PARAMS.block_reward)
            for config in configs:
                funding.forward_transfer(config.ledger_id, b"growth", 1_000)
            node.submit_transaction(funding.change_to(MINER.address).build())
        for epoch in range(epochs):
            first_submission = configs[0].schedule.submission_window(epoch).start
            node.mine_blocks(MINER.address, first_submission - 1 - node.height)
            for config in configs:
                node.submit_transaction(_growth_certificate(node, config, epoch, bts))
            node.mine_block(MINER.address)
    finally:
        proving.verify, SidechainTxCommitmentTree.__init__ = verify, tree_init
        CowDict.__setitem__ = setitem
    return GrowthRun(node, work["verifies"], work["leaves"], work["slot_elements"])


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


def test_a_certificate_writes_the_same_slot_elements_however_many_sidechains_share_a_height():
    """Twice the sidechains, every one sharing each ceasing deadline and
    each payout-maturity height: no more slot elements written per
    certificate, and every certificate's payouts matured."""
    epochs = GROWTH_EPOCHS[0]
    runs = [growth_chain(epochs, n, GROWTH_BTS) for n in GROWTH_SIDECHAIN_COUNTS]
    adopted = [_adopted(run.node) for run in runs]
    assert adopted == [n * epochs for n in GROWTH_SIDECHAIN_COUNTS]
    # the last epoch's payouts are still pending, every earlier one matured
    pending = [len(run.node.state.pending_payouts) for run in runs]
    assert pending == list(GROWTH_SIDECHAIN_COUNTS)
    counts = [run.slot_elements for run in runs]
    assert tuple(counts) == GROWTH["mc.growth.slot_elements_per_certificate"]
    assert counts[1] / adopted[1] <= counts[0] / adopted[0]


class HistoryCountingStore(FileStore):
    """A :class:`FileStore` that counts every byte written to it but the
    live-state snapshot section."""

    LIVE = ("mc/state",)

    def __init__(self, data_dir) -> None:
        super().__init__(data_dir)
        self.history_bytes = 0

    def stage(self, kind: int, payload: bytes) -> None:
        self.history_bytes += len(payload)
        super().stage(kind, payload)

    def append(self, kind: int, payload: bytes) -> None:
        self.history_bytes += len(payload)
        super().append(kind, payload)

    def write_snapshot(self, epoch: int, sections: dict[str, bytes]) -> None:
        self.history_bytes += sum(len(v) for k, v in sections.items() if k not in self.LIVE)
        super().write_snapshot(epoch, sections)


@lru_cache(maxsize=None)
def mc_history_bytes(height: int) -> int:
    """History bytes a durable mainchain node writes mining empty blocks."""
    with tempfile.TemporaryDirectory() as data_dir:
        store = HistoryCountingStore(data_dir)
        node = MainchainNode(PARAMS, store=store)
        node.mine_blocks(MINER.address, height)
        node.close()
    return store.history_bytes


@lru_cache(maxsize=None)
def latus_history_bytes(epochs: int) -> int:
    """History bytes a durable paged Latus node (depth 20, epochs of 4 MC
    blocks) writes forging empty blocks through ``epochs`` certified epochs."""
    with tempfile.TemporaryDirectory() as data_dir:
        store = HistoryCountingStore(data_dir)
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain(
            "growth/history", epoch_len=4, submit_len=2, store=store,
            latus_params=LatusParams(mst_depth=20), paged_mst=True,
        )
        harness.run_epochs(sc, epochs)
        assert len(sc.node.certificates) == epochs
        sc.node.close()
    return store.history_bytes


def test_history_is_written_once():
    """Twice the chain: no more history bytes per block (MC) or per epoch
    (Latus), since no snapshot copies the history the log holds."""
    measured = {
        "mc.growth.history_bytes": tuple(mc_history_bytes(h) for h in HISTORY_HEIGHTS),
        "latus.growth.history_bytes": tuple(latus_history_bytes(e) for e in HISTORY_EPOCHS),
    }
    assert measured == {name: GROWTH[name] for name in measured}
    for (n, twice), (small, large) in (
        (HISTORY_HEIGHTS, measured["mc.growth.history_bytes"]),
        (HISTORY_EPOCHS, measured["latus.growth.history_bytes"]),
    ):
        assert large / twice <= small / n


_PAYER, _PAYEE, _FILLER = (KeyPair.from_seed(f"growth/{name}") for name in ("payer", "payee", "filler"))


def _utxo(owner: KeyPair, amount: int, salt: bytes, tag: int) -> Utxo:
    return Utxo(address_to_field(owner.address), amount, derive_nonce(salt, tag.to_bytes(8, "little")))


@lru_cache(maxsize=None)
def transition_work(occupancy: int) -> tuple[int, int]:
    """``(native MiMC permutations, real signature verifies)`` of
    :data:`TRANSITION_PAYMENTS` payments on a depth-12 MST holding
    ``occupancy`` other leaves, every sibling subtree of a payment's slots
    among them."""
    state = LatusState(TRANSITION_DEPTH)
    coins = [_utxo(_PAYER, 100, b"coin", i) for i in range(TRANSITION_PAYMENTS)]
    payments = [
        sign_payment(
            [(coin, _PAYER)],
            [_utxo(_PAYEE, 60, b"paid", i), _utxo(_PAYER, 40, b"change", i)],
        )
        for i, coin in enumerate(coins)
    ]
    slots = {state.mst.position_of(u) for u in coins}
    slots |= {state.mst.position_of(u) for tx in payments for u in tx.outputs}
    # first a leaf in each sibling subtree of every slot, so that a slot's
    # path hashes at every level whatever the occupancy; then the lowest
    # free positions
    others: dict[int, None] = {}
    for slot in sorted(slots):
        for level in range(TRANSITION_DEPTH):
            sibling = (slot >> level ^ 1) << level
            free = (p for p in range(sibling, sibling + (1 << level)) if p not in slots)
            others.setdefault(next(free))
    assert len(others) <= occupancy
    for position in range(1 << TRANSITION_DEPTH):
        if len(others) == occupancy:
            break
        if position not in slots:
            others.setdefault(position)
    state.mst.apply_leaf_batch({p: _utxo(_FILLER, 1, b"other", p).leaf_value for p in others})
    state.mst.apply_batch(add=coins)
    assert state.mst.occupied_count == occupancy + len(coins)
    mimc.clear_cache()
    signatures.clear_verify_cache()
    registry = observability.registry()
    counters = [
        registry.counter(name)
        for name in (
            "repro_mimc_permutations_total",
            "repro_signature_verifies_total",
            "repro_signature_cache_hits_total",
        )
    ]
    before = [counter.value() for counter in counters]
    for tx in payments:
        state.apply(tx)
    permutations, verifies, hits = (c.value() - b for c, b in zip(counters, before))
    return permutations, verifies - hits


def test_latus_transition_cost_does_not_grow_with_occupancy():
    """Twice the MST occupancy: the same MiMC permutations and real
    signature verifies for the same payments."""
    runs = [transition_work(n) for n in TRANSITION_OCCUPANCY]
    measured = {
        "latus.growth.permutations_per_transition": tuple(run[0] for run in runs),
        "latus.growth.verifies_per_transition": tuple(run[1] for run in runs),
    }
    assert measured == {name: GROWTH[name] for name in measured}
    for small, large in measured.values():
        assert large <= small


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
