"""Differential tests: the value-level witness checker against the reference builder.

``Prove`` decides every statement through
:class:`repro.snark.witness.WitnessChecker`.  The oracle is the symbolic
:class:`~repro.snark.circuit.CircuitBuilder` plus the public-input check —
:meth:`Circuit.check` — and the two must agree on everything observable:
:class:`R1CSStats`, the verdict, the exception type and its exact message.

This module holds the oracle helpers, the job builders for every circuit
family, and the cases for the federated circuits, the stand-in certificate
circuit, the batched ablation, random op programs over the whole builder
surface, the traffic that retired the old template path, the method
surface, pool workers, and the fixed-at-Setup structure property.  The
per-family cases of the Latus circuits live in
``tests/test_template_compile.py`` (their original test IDs).
"""

import functools
import inspect
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto import mimc
from repro.crypto.field import MODULUS
from repro.crypto.keys import KeyPair
from repro.errors import SynthesisError, ZendooError
from repro.federated import (
    FederatedCswCircuit,
    FederatedCswWitness,
    FederatedWCertCircuit,
    FederatedWCertWitness,
    certificate_message,
    collect_signatures,
    exit_message,
    federation_from_seeds,
)
from repro.latus.proofs import (
    BatchedLatusSystem,
    LatusTransitionSystem,
    _BatchedTransition,
)
from repro.latus.state import LatusState
from repro.latus.transactions import (
    build_btr_tx,
    build_forward_transfers_tx,
    pack_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.latus.wcert import LatusWCertCircuit, latus_proofdata
from repro.scenarios import ZendooHarness
from repro.snark import proving
from repro.snark.circuit import Circuit, CircuitBuilder
from repro.snark.gadgets.mimc import mimc_hash_gadget
from repro.snark.pool import ProverPool
from repro.snark.recursive import RecursiveComposer
from repro.snark.witness import WitnessChecker

DEPTH = 8
LEDGER = derive_ledger_id("witness-checker-test")

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")
DEST = KeyPair.from_seed("mc-dest")


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def outcome(run):
    """``("ok", value)`` or ``("raised", type, message)`` of calling ``run``."""
    try:
        return ("ok", run())
    except ZendooError as exc:
        return ("raised", type(exc), str(exc))


def assert_parity(pk, public, witness):
    """Prove through the production path and hold it to the reference builder.

    Accepting: identical stats, and the 96 proof bytes are the tag over the
    key and this public input.  Rejecting: identical exception type and
    message.  Returns the production outcome.
    """
    expected = outcome(lambda: pk.circuit.check(public, witness))
    actual = outcome(lambda: proving.prove_with_stats(pk, public, witness))
    if expected[0] == "raised":
        assert actual == expected
        return actual
    assert actual[0] == "ok", actual
    result = actual[1]
    assert result.stats == expected[1]
    assert len(result.proof.data) == proving.PROOF_SIZE
    assert proving.verify(pk.verifying_key, public, result.proof)
    return actual


def assert_rejection_parity(pk, public, witness):
    """A corrupted statement is refused, with the oracle's exact error."""
    verdict = assert_parity(pk, public, witness)
    assert verdict[0] == "raised", "the corrupted witness was accepted"


# ---------------------------------------------------------------------------
# Job builders: (proving key, public input, witness) per circuit family
# ---------------------------------------------------------------------------


class _PublicsOnlyCertificate(Circuit):
    """The stand-in certificate statement the ``mc_fleet`` benchmark proves:
    every public input allocated, nothing else."""

    circuit_id = "test/publics-only-wcert"

    def synthesize(self, b, public, witness):
        b.alloc_publics(public)


@functools.lru_cache(maxsize=1)
def _flood_keys():
    return proving.setup(_PublicsOnlyCertificate())


def mint(state, keypair, amount, tag):
    u = Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"wcmint", tag.to_bytes(8, "little")),
    )
    state.mst.add(u)
    return u


def out(keypair, amount, tag):
    return Utxo(
        addr=address_to_field(keypair.address),
        amount=amount,
        nonce=derive_nonce(b"wcout", tag.to_bytes(8, "little")),
    )


def payment_job(amount=100):
    state = LatusState(DEPTH)
    u = mint(state, ALICE, amount, 1)
    return state, sign_payment([(u, ALICE)], [out(BOB, amount - 10, 2)])


def backward_transfer_job(amount=50):
    state = LatusState(DEPTH)
    u = mint(state, ALICE, amount, 1)
    bt = BackwardTransfer(receiver_addr=ALICE.address, amount=amount)
    return state, sign_backward_transfer([(u, ALICE)], [bt])


def forward_transfers_job(amounts=(50,), depth=DEPTH):
    state = LatusState(depth)
    fts = tuple(
        ForwardTransfer(
            ledger_id=LEDGER,
            receiver_metadata=pack_receiver_metadata(ALICE.address, ALICE.address),
            amount=amount,
        )
        for amount in amounts
    )
    return state, build_forward_transfers_tx(b"\x01" * 32, fts, state.mst)


def btr_sync_job(amount=40):
    state = LatusState(DEPTH)
    u = mint(state, ALICE, amount, 1)
    request = BackwardTransferRequest(
        ledger_id=LEDGER,
        receiver=b"\x01" * 32,
        amount=u.amount,
        nullifier=u.nullifier,
        proofdata=u.as_field_elements(),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    return state, build_btr_tx(b"\x02" * 32, (request,), state.mst)


BASE_JOBS = {
    "payment": payment_job,
    "backward_transfer": backward_transfer_job,
    "forward_transfers": forward_transfers_job,
    "btr_sync": btr_sync_job,
}


def base_job(state, tx, composer=None):
    """The Base statement for applying ``tx`` to ``state``."""
    composer = composer or RecursiveComposer(LatusTransitionSystem())
    system = composer.system
    public = (system.digest(state), system.digest(system.apply(tx, state)))
    return composer._base_pk, public, (state, tx)


def tampered_leaf(tx, field):
    """``tx`` with the cached MiMC leaf of its first input/output overwritten."""
    first, *rest = getattr(tx, field)
    utxo = first if isinstance(first, Utxo) else first.utxo
    evil = Utxo(addr=utxo.addr, amount=utxo.amount, nonce=utxo.nonce)
    object.__setattr__(evil, "leaf_value", 12345)
    swapped = evil if isinstance(first, Utxo) else replace(first, utxo=evil)
    return replace(tx, **{field: (swapped, *rest)})


def merge_job(amount=1000):
    composer = RecursiveComposer(LatusTransitionSystem())
    state = LatusState(DEPTH)
    u = mint(state, ALICE, amount, 1)
    mid = out(ALICE, amount, 2)
    left, state_after = composer.prove_base(state, sign_payment([(u, ALICE)], [mid]))
    right, _ = composer.prove_base(
        state_after, sign_payment([(mid, ALICE)], [out(BOB, amount, 3)])
    )
    return composer._merge_pk, (left.from_digest, right.to_digest), (left, right)


def _wcert_statement(sc):
    """Public input and witness of the certificate the node built last."""
    node = sc.node
    witness = node.last_wcert_witness
    epoch_id = len(node.certificates) - 1
    draft = WithdrawalCertificate(
        ledger_id=sc.ledger_id,
        epoch_id=epoch_id,
        quality=witness.last_block.height,
        bt_list=witness.bt_list,
        proofdata=latus_proofdata(
            witness.last_block.hash, witness.final_state.mst_root, witness.mst_delta
        ),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    public = draft.public_input(
        node._epoch_boundary_hash(epoch_id - 1), node._epoch_boundary_hash(epoch_id)
    )
    return public, witness


@functools.cache
def latus_scenario():
    """One funded three-epoch run; the last two certificate statements kept."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("witness-checker-test", epoch_len=4, submit_len=2)
    harness.forward_transfer(sc, ALICE, 777_000)
    harness.run_epochs(sc, 1)
    harness.wallet(sc, ALICE).pay(BOB.address, 1000)
    harness.run_epochs(sc, 1)
    earlier = _wcert_statement(sc)
    harness.run_epochs(sc, 1)
    return SimpleNamespace(
        harness=harness, sc=sc, wcert_statements=(earlier, _wcert_statement(sc))
    )


@pytest.fixture(scope="module")
def harness_scenario():
    return latus_scenario()


def wcert_job(scenario, which=-1):
    pk, _ = proving.setup(LatusWCertCircuit(scenario.sc.node.cert_builder.prover))
    return (pk, *scenario.wcert_statements[which])


def withdrawal_job(scenario, circuit, owner=ALICE):
    harness, sc = scenario.harness, scenario.sc
    utxo = harness.wallet(sc, owner).utxos()[0]
    witness, anchor_hash = harness._withdrawal_witness(sc, utxo, owner, DEST.address)
    draft = BackwardTransferRequest(
        ledger_id=sc.ledger_id,
        receiver=DEST.address,
        amount=utxo.amount,
        nullifier=utxo.nullifier,
        proofdata=utxo.as_field_elements(),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    pk, _ = proving.setup(circuit)
    return pk, draft.public_input(anchor_hash), witness


FEDERATION, FEDERATION_KEYS = federation_from_seeds(["a", "b", "c", "d", "e"], 3)


def federated_wcert_job(quality=1, signers=3, state_digest=42):
    message = certificate_message(LEDGER, 0, quality, (), b"\x01" * 32, state_digest)
    witness = FederatedWCertWitness(
        ledger_id=LEDGER,
        epoch_id=0,
        quality=quality,
        bt_list=(),
        h_epoch_last=b"\x01" * 32,
        state_digest=state_digest,
        signatures=collect_signatures(FEDERATION_KEYS[:signers], message),
    )
    draft = WithdrawalCertificate(
        ledger_id=LEDGER,
        epoch_id=0,
        quality=quality,
        bt_list=(),
        proofdata=(state_digest,),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    pk, _ = proving.setup(FederatedWCertCircuit(FEDERATION))
    return pk, draft.public_input(b"\x00" * 32, b"\x01" * 32), witness


def federated_csw_job(amount=500, signers=3):
    nullifier = b"\x05" * 32
    message = exit_message(LEDGER, DEST.address, amount, nullifier)
    witness = FederatedCswWitness(
        ledger_id=LEDGER,
        receiver=DEST.address,
        amount=amount,
        nullifier=nullifier,
        signatures=collect_signatures(FEDERATION_KEYS[:signers], message),
    )
    draft = CeasedSidechainWithdrawal(
        ledger_id=LEDGER,
        receiver=DEST.address,
        amount=amount,
        nullifier=nullifier,
        proofdata=(),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )
    pk, _ = proving.setup(FederatedCswCircuit(FEDERATION))
    return pk, draft.public_input(b"\x07" * 32), witness


def batched_job(amount=1000):
    """The batched ablation's Base statement over a two-payment epoch."""
    composer = RecursiveComposer(BatchedLatusSystem())
    state = LatusState(DEPTH)
    u = mint(state, ALICE, amount, 1)
    mid = out(ALICE, amount, 2)
    txs = (
        sign_payment([(u, ALICE)], [mid]),
        sign_payment([(mid, ALICE)], [out(BOB, amount - 1, 3)]),
    )
    return base_job(state, _BatchedTransition(txs), composer)


# ---------------------------------------------------------------------------
# Families beyond the Latus per-family module
# ---------------------------------------------------------------------------


class TestFederatedFamilies:
    def test_wcert_parity(self):
        assert assert_parity(*federated_wcert_job())[0] == "ok"

    def test_wcert_below_threshold_rejected(self):
        assert_rejection_parity(*federated_wcert_job(signers=2))

    def test_wcert_wrong_quality_rejected(self):
        """An R1CS violation on the wire the quality now lives on."""
        pk, public, witness = federated_wcert_job()
        assert_rejection_parity(pk, (public[0] + 1, *public[1:]), witness)

    def test_csw_parity(self):
        assert assert_parity(*federated_csw_job())[0] == "ok"

    def test_csw_wrong_amount_rejected(self):
        pk, public, witness = federated_csw_job()
        assert_rejection_parity(pk, public, replace(witness, amount=witness.amount + 1))

    def test_csw_below_threshold_rejected(self):
        assert_rejection_parity(*federated_csw_job(signers=1))


class TestStandInAndBatchedCircuits:
    def test_flood_certificate_circuit(self):
        """A public-inputs-only certificate circuit (the statement the
        ``mc_fleet`` benchmark workload proves)."""
        pk, _ = _flood_keys()
        assert assert_parity(pk, (1, 2, 3, 4, 5), None)[0] == "ok"
        assert assert_parity(pk, (), None)[0] == "ok"

    def test_undeclared_public_input_is_a_synthesis_error(self):
        class Forgetful(Circuit):
            circuit_id = "test/forgetful"

            def synthesize(self, builder, public_input, witness):
                builder.alloc_public(public_input[0])

        pk, _ = proving.setup(Forgetful())
        verdict = assert_parity(pk, (1, 2), None)
        assert verdict[:2] == ("raised", SynthesisError)

    def test_batched_epoch(self):
        assert assert_parity(*batched_job())[0] == "ok"

    def test_batched_epoch_wrong_d_to_rejected(self):
        pk, public, witness = batched_job()
        assert_rejection_parity(pk, (public[0], public[1] + 1), witness)

    def test_batched_empty_heartbeat(self):
        composer = RecursiveComposer(BatchedLatusSystem())
        state = LatusState(DEPTH)
        mint(state, ALICE, 5, 1)
        pk, public, witness = base_job(state, _BatchedTransition(()), composer)
        assert public[0] == public[1]
        assert assert_parity(pk, public, witness)[0] == "ok"


# ---------------------------------------------------------------------------
# Random op programs over the whole builder surface
# ---------------------------------------------------------------------------

#: Values a hostile witness would try: the field's edges, the 64-bit range
#: edge, negatives, over-modulus representatives.
_EDGE_VALUES = [
    0, 1, 2, 3, MODULUS - 1, MODULUS, MODULUS + 1, -1, -2,
    (1 << 64) - 1, 1 << 64, 1 << 254, 2 * MODULUS + 5,
]  # fmt: skip
_values = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(-(1 << 256), 1 << 256))
_index = st.integers(0, 1 << 16)
_annotation = st.sampled_from(["", "x", "amount/range"])
_bits = st.sampled_from([0, 1, 2, 8, 64, 255, 300])


def _op(name, *args):
    return st.tuples(st.just(name), *args)


_OPS = st.one_of(
    _op("alloc", _values),
    _op("alloc_public", _values),
    _op("alloc_publics", st.lists(_values, max_size=3)),
    _op("constant", _values),
    _op("one"),
    _op("add", _index, _index),
    _op("sub", _index, _index),
    _op("scale", _index, _values),
    _op("sum", st.lists(_index, max_size=4)),
    _op("mul", _index, _index, _annotation),
    _op("square", _index, _annotation),
    _op("enforce_equal", _index, _index, _annotation),
    _op("enforce_zero", _index, _annotation),
    _op("enforce_boolean", _index, _annotation),
    _op("enforce_nonzero", _index, _annotation),
    _op("alloc_bit", _values),
    _op("decompose_bits", _index, _bits, _annotation),
    _op("enforce_range", _index, _bits, _annotation),
    _op("select", _index, _index, _index),
    _op("swap_if", _index, _index, _index),
    _op("assert_native", st.booleans(), st.sampled_from(["", "native predicate"])),
    _op("mimc_hash", st.lists(_index, max_size=2)),
)


def run_program(builder, program):
    """Interpret ``program`` on ``builder``; returns every wire it produced."""
    wires = [builder.one, builder.constant(0)]

    def w(index):
        return wires[index % len(wires)]

    for name, *args in program:
        if name == "one":
            produced = builder.one
        elif name in ("alloc", "alloc_public", "alloc_publics", "constant", "alloc_bit"):
            produced = getattr(builder, name)(args[0])
        elif name in ("add", "sub"):
            produced = getattr(builder, name)(w(args[0]), w(args[1]))
        elif name == "scale":
            produced = builder.scale(w(args[0]), args[1])
        elif name == "sum":
            produced = builder.sum([w(i) for i in args[0]])
        elif name == "mul":
            produced = builder.mul(w(args[0]), w(args[1]), args[2])
        elif name in ("square", "enforce_zero", "enforce_boolean", "enforce_nonzero"):
            produced = getattr(builder, name)(w(args[0]), args[1])
        elif name == "enforce_equal":
            produced = builder.enforce_equal(w(args[0]), w(args[1]), args[2])
        elif name in ("decompose_bits", "enforce_range"):
            produced = getattr(builder, name)(w(args[0]), args[1], args[2])
        elif name in ("select", "swap_if"):
            produced = getattr(builder, name)(w(args[0]), w(args[1]), w(args[2]))
        elif name == "assert_native":
            produced = builder.assert_native(*args)
        else:
            produced = mimc_hash_gadget(builder, [w(i) for i in args[0]])
        if produced is not None:
            wires.extend(produced if isinstance(produced, (list, tuple)) else [produced])
    return wires


class TestRandomOpPrograms:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_OPS, max_size=14))
    def test_checker_equals_reference_builder(self, program):
        reference = CircuitBuilder()
        checker = WitnessChecker()
        expected = outcome(lambda: run_program(reference, program))
        actual = outcome(lambda: run_program(checker, program))
        if expected[0] == "raised":
            assert actual == expected
            return
        assert actual[0] == "ok", actual
        assert checker.stats() == reference.stats()
        assert tuple(checker.public_values) == reference.cs.public_values()
        assert [x.value for x in actual[1]] == [x.value for x in expected[1]]
        # the invariant the checker stands on: a wire's value is <LC, z>
        for wire in expected[1]:
            assert wire.lc.evaluate(reference.cs.assignment) == wire.value

    def test_first_failure_wins_over_later_ones(self):
        """Two violations in one program: the earlier one is reported, with
        the running constraint count standing in for an empty annotation."""
        program = [
            ("alloc", 5),
            ("mul", 2, 2, "m"),
            ("enforce_boolean", 2, ""),
            ("assert_native", False, "never reached"),
        ]
        expected = outcome(lambda: run_program(CircuitBuilder(), program))
        actual = outcome(lambda: run_program(WitnessChecker(), program))
        assert actual == expected
        assert expected[2] == "constraint 1 unsatisfied: 20 != 0"


# ---------------------------------------------------------------------------
# The traffic that retired the old path
# ---------------------------------------------------------------------------


def _snapshot(verdict):
    result = verdict[1]
    return result.stats, result.proof.data


def assert_order_independent(jobs):
    """Prove ``jobs`` in order and in reverse, each held to the oracle: nothing
    about a proof may depend on the proofs before it.  Returns the snapshots."""
    forward = [_snapshot(assert_parity(*job)) for job in jobs]
    backward = [_snapshot(assert_parity(*job)) for job in reversed(jobs)]
    assert forward == backward[::-1]
    return forward


class TestShapeVaryingTraffic:
    def test_ft_50_then_ft_51_through_one_composer(self):
        """Same shape, different total — the pair that retired the old cache."""
        composer = RecursiveComposer(LatusTransitionSystem())
        jobs = [base_job(*forward_transfers_job((a,)), composer) for a in (50, 51)]
        first, second = assert_order_independent(jobs)
        assert first[0] == second[0]  # one shape
        assert first[1] != second[1]  # two statements

    def test_ten_forward_transfer_counts(self):
        composer = RecursiveComposer(LatusTransitionSystem())
        jobs = [
            base_job(
                *forward_transfers_job(tuple(range(100, 100 + n)), depth=12), composer
            )
            for n in range(1, 11)
        ]
        snapshots = assert_order_independent(jobs)
        assert len({stats.num_constraints for stats, _ in snapshots}) == 10

    def test_wcert_at_two_consecutive_epochs(self, harness_scenario):
        jobs = [wcert_job(harness_scenario, which) for which in (0, 1)]
        assert jobs[0][1][0] < jobs[1][1][0]  # the quality (height) moved on
        assert_order_independent(jobs)


# ---------------------------------------------------------------------------
# Surface, pool workers, hashing side effects
# ---------------------------------------------------------------------------


def _parameters(function):
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(function).parameters.values()
    ]


def test_checker_offers_the_builders_whole_surface():
    """A gadget primitive added to one builder cannot silently miss the other."""
    for name, member in inspect.getmembers(CircuitBuilder):
        if name.startswith("_"):
            continue
        twin = inspect.getattr_static(WitnessChecker, name, None)
        assert twin is not None, f"WitnessChecker lacks {name}"
        if isinstance(member, property):
            assert isinstance(twin, property), name
        else:
            assert _parameters(twin) == _parameters(member), name


def test_pool_worker_proofs_are_byte_identical():
    composer = RecursiveComposer(LatusTransitionSystem())
    jobs = [base_job(*BASE_JOBS[kind](), composer) for kind in sorted(BASE_JOBS)]
    local = assert_order_independent(jobs)
    with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
        pooled = pool.map_prove(
            composer._base_pk, [(public, witness) for _, public, witness in jobs]
        )
        assert pool.stats.workers == 2
    assert [(r.stats, r.proof.data) for r in pooled] == local


def test_gadget_hashing_leaves_native_hash_accounting_alone():
    """The checker's permutation is the native one, called past the memo and
    the ``repro_mimc_*`` counters: those keep meaning native hashing."""
    values = [7, MODULUS - 3, 1 << 200]
    expected = mimc.mimc_hash(values)
    mimc.clear_cache()
    permutations = observability.registry().counter("repro_mimc_permutations_total")
    before = permutations.value()
    checker = WitnessChecker()
    digest = mimc_hash_gadget(checker, [checker.alloc(v) for v in values])
    assert digest.value == expected
    assert checker.stats().num_constraints == 4 * 3 * mimc.ROUNDS
    assert mimc.cache_size() == 0
    assert permutations.value() == before


def _refuse_permutation(x, k):
    raise AssertionError(f"permutation E_{k}({x}) recomputed")


def _mimc_series():
    registry = observability.registry()
    return tuple(
        registry.counter(f"repro_mimc_{name}_total").value()
        for name in ("compressions", "permutations", "cache_hits", "cache_misses")
    )


class TestProofReadsTheHashMemo:
    """A proof takes each permutation native hashing already computed from
    the ``mimc_compress`` memo, writes nothing there and counts nothing."""

    def test_warm_proofs_compute_no_permutation(self, monkeypatch):
        composer = RecursiveComposer(LatusTransitionSystem())
        jobs = [base_job(*BASE_JOBS[kind](), composer) for kind in sorted(BASE_JOBS)]
        monkeypatch.setattr(mimc, "_permutation_compiled", _refuse_permutation)
        for job in jobs:
            proving.prove_with_stats(*job)
        # the control: a cold lookup does reach the compiled permutation
        mimc.clear_cache()
        checker = WitnessChecker()
        with pytest.raises(AssertionError, match="recomputed"):
            mimc_hash_gadget(checker, [checker.alloc(7)])

    def test_warm_and_cold_proofs_are_identical(self):
        composer = RecursiveComposer(LatusTransitionSystem())
        jobs = [base_job(*BASE_JOBS[kind](), composer) for kind in sorted(BASE_JOBS)]

        def snapshot(job):
            result = proving.prove_with_stats(*job)
            return result.stats, result.proof.data

        warm = [snapshot(job) for job in jobs]
        cold = []
        for job in jobs:
            mimc.clear_cache()  # the gadget now recomputes every leaf hash
            cold.append(snapshot(job))
        assert cold == warm

    def test_warm_gadget_hashing_moves_no_memo_entry_or_counter(self):
        values = [[7, MODULUS - 3, 1 << 200], [0], [MODULUS - 1, 1]]
        expected = [mimc.mimc_hash(v) for v in values]
        size, series = mimc.cache_size(), _mimc_series()
        checker = WitnessChecker()
        digests = [
            mimc_hash_gadget(checker, [checker.alloc(x) for x in v]).value
            for v in values
        ]
        assert digests == expected
        assert (mimc.cache_size(), _mimc_series()) == (size, series)

    def test_reader_equals_the_permutation_where_the_digest_wraps(self, monkeypatch):
        rng = random.Random(37)
        edges = (0, 1, MODULUS - 1)
        pairs = [(x, k) for x in edges for k in edges]
        pairs += [(rng.randrange(MODULUS), rng.randrange(MODULUS)) for _ in range(24)]
        mimc.clear_cache()
        digests = [mimc.mimc_compress(x, k) for x, k in pairs]
        # H - x - k leaves [0, p) on every pair with p - 1 and on random ones
        assert sum(h < x + k for h, (x, k) in zip(digests, pairs)) >= 5
        size = mimc.cache_size()

        def reader_agrees():
            for x, k in pairs:
                assert mimc.memo_permutation(x, k) == mimc._permutation_compiled(x, k)
            assert mimc.cache_size() == size

        reader_agrees()  # every pair memoized
        # at the bound, each fresh pair evicts the oldest: all of ``pairs``
        monkeypatch.setattr(mimc, "CACHE_MAX_ENTRIES", size)
        for x in range(len(pairs)):
            mimc.mimc_compress(x, 2)
        reader_agrees()  # every pair recomputed
        misses = observability.registry().counter("repro_mimc_cache_misses_total")
        before = misses.value()
        mimc.mimc_compress(*pairs[-1])
        assert misses.value() == before + 1


# ---------------------------------------------------------------------------
# Def. 2.3: the constraint system is fixed at Setup
# ---------------------------------------------------------------------------


def _matrix_rows(pk, public, witness):
    """The flattened ``(A, B, C)`` rows the reference builder materialises."""
    builder = CircuitBuilder(keep_constraints=True)
    pk.circuit.synthesize(builder, public, witness)
    return tuple(
        (tuple(c.a.terms.items()), tuple(c.b.terms.items()), tuple(c.c.terms.items()))
        for c in builder.cs.constraints
    )


class TestStructureIsFixedAtSetup:
    """Two different witnesses of one arity must yield one constraint matrix:
    a witness value may sit on a wire, never in a coefficient.  This is what
    a real Setup — or any future structure cache — relies on."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: base_job(*payment_job(100 + v)),
            lambda v: base_job(*backward_transfer_job(50 + v)),
            lambda v: base_job(*forward_transfers_job((50 + v,))),
            lambda v: base_job(*btr_sync_job(40 + v)),
            lambda v: merge_job(1000 + v),
            lambda v: federated_wcert_job(quality=1 + v, state_digest=42 + v),
            lambda v: federated_csw_job(amount=500 + v),
            lambda v: batched_job(1000 + v),
            lambda v: (_flood_keys()[0], (1 + v, 2, 3), None),
        ],
        ids=[
            "base-payment", "base-backward-transfer", "base-forward-transfers",
            "base-btr-sync", "merge", "federated-wcert", "federated-csw",
            "base-batched", "flood-wcert",
        ],
    )  # fmt: skip
    def test_matrix_does_not_depend_on_the_witness(self, build):
        first, second = build(0), build(1)
        assert first[1] != second[1]  # genuinely different statements
        assert _matrix_rows(*first) == _matrix_rows(*second)

    def test_wcert_matrix_does_not_depend_on_the_epoch(self, harness_scenario):
        first, second = (wcert_job(harness_scenario, which) for which in (0, 1))
        assert first[1] != second[1]
        assert _matrix_rows(*first) == _matrix_rows(*second)

    def test_withdrawal_matrix_does_not_depend_on_the_utxo(self, harness_scenario):
        from repro.latus.withdrawal_circuits import LatusBtrCircuit

        first = withdrawal_job(harness_scenario, LatusBtrCircuit(), ALICE)
        second = withdrawal_job(harness_scenario, LatusBtrCircuit(), BOB)
        assert first[1] != second[1]
        assert _matrix_rows(*first) == _matrix_rows(*second)
