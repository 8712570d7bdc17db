"""Per-family differential cases for the Latus circuits.

Every Latus circuit family — the Base circuit with each of the four
transaction kinds, Merge, the withdrawal certificate, BTR and CSW — is proved
through the production path with a good witness and with corrupted ones, and
held to the reference builder by ``tests/test_witness_checker.py``'s oracle
(identical :class:`R1CSStats`, verdict, exception type and message).  The
builders and helpers live there; this module keeps the name it had when the
same cases pinned the constraint-template cache, so their test IDs are stable.
"""

from dataclasses import replace

import pytest

from repro.crypto.keys import KeyPair
from repro.latus.proofs import LatusTransitionSystem
from repro.latus.withdrawal_circuits import LatusBtrCircuit, LatusCswCircuit
from repro.snark.recursive import RecursiveComposer
from tests.test_witness_checker import (
    BASE_JOBS,
    assert_order_independent,
    assert_parity,
    assert_rejection_parity,
    base_job,
    latus_scenario,
    merge_job,
    tampered_leaf,
    wcert_job,
    withdrawal_job,
)


@pytest.fixture(scope="module")
def harness_scenario():
    return latus_scenario()


class TestBaseCircuitFamilies:
    @pytest.mark.parametrize("kind", sorted(BASE_JOBS))
    def test_proof_parity(self, kind):
        assert assert_parity(*base_job(*BASE_JOBS[kind]()))[0] == "ok"

    @pytest.mark.parametrize("kind", sorted(BASE_JOBS))
    def test_rejection_parity(self, kind):
        """Wrong ``d_from``: the statement's first native check fails."""
        pk, public, witness = base_job(*BASE_JOBS[kind]())
        assert_rejection_parity(pk, (public[0] + 1, public[1]), witness)

    @pytest.mark.parametrize("kind", sorted(BASE_JOBS))
    def test_wrong_d_to_rejection_parity(self, kind):
        pk, public, witness = base_job(*BASE_JOBS[kind]())
        assert_rejection_parity(pk, (public[0], public[1] + 1), witness)

    def test_corrupted_leaf_rejection_parity(self):
        """An arithmetic (R1CS) violation, not just a native check: an output
        whose cached MiMC leaf was tampered with enters the successor state,
        so the digests agree and it is the leaf gadget that refuses it."""
        state, tx = BASE_JOBS["payment"]()
        verdict = assert_parity(*base_job(state, tampered_leaf(tx, "outputs")))
        assert verdict[0] == "raised" and "utxo/leaf" in verdict[2]

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("payment", "inputs"),
            ("backward_transfer", "inputs"),
            ("btr_sync", "inputs"),
            ("forward_transfers", "outputs"),
        ],
    )
    def test_tampered_leaf_rejection_parity(self, kind, field):
        """Proved against the honest statement: a tampered input is not in
        the state (``update`` returns ⊥), a tampered output moves ``d_to``."""
        state, tx = BASE_JOBS[kind]()
        pk, public, _ = base_job(state, tx)
        assert_rejection_parity(pk, public, (state, tampered_leaf(tx, field)))

    def test_four_shapes_share_one_family(self):
        """All four transaction kinds prove under one ``circuit_id`` and one
        key, in either order, with no proof affecting another."""
        composer = RecursiveComposer(LatusTransitionSystem())
        jobs = [base_job(*BASE_JOBS[kind](), composer) for kind in sorted(BASE_JOBS)]
        snapshots = assert_order_independent(jobs)
        assert len({stats.num_constraints for stats, _ in snapshots}) == len(BASE_JOBS)


class TestMergeCircuitFamily:
    def test_proof_parity(self):
        assert assert_parity(*merge_job())[0] == "ok"

    def test_rejection_parity(self):
        """Non-adjacent children: the adjacency native check fails."""
        pk, public, (left, right) = merge_job()
        forged = replace(left, to_digest=left.to_digest + 1)
        assert_rejection_parity(pk, public, (forged, right))

    def test_wrong_public_rejection_parity(self):
        pk, public, witness = merge_job()
        assert_rejection_parity(pk, (public[0], public[1] + 1), witness)


class TestWCertFamily:
    def test_proof_parity(self, harness_scenario):
        assert assert_parity(*wcert_job(harness_scenario))[0] == "ok"

    def test_rejection_parity(self, harness_scenario):
        pk, public, witness = wcert_job(harness_scenario)
        bad = replace(witness, start_state_digest=witness.start_state_digest + 1)
        assert_rejection_parity(pk, public, bad)


class TestWithdrawalFamilies:
    @pytest.mark.parametrize("circuit_cls", [LatusBtrCircuit, LatusCswCircuit])
    def test_proof_parity(self, harness_scenario, circuit_cls):
        assert assert_parity(*withdrawal_job(harness_scenario, circuit_cls()))[0] == "ok"

    def _stolen_key(self, harness_scenario, circuit):
        pk, public, witness = withdrawal_job(harness_scenario, circuit)
        mallory = KeyPair.from_seed("mallory")
        assert_rejection_parity(pk, public, replace(witness, owner_pubkey=mallory.public))

    def test_rejection_parity(self, harness_scenario):
        self._stolen_key(harness_scenario, LatusBtrCircuit())

    def test_csw_rejection_parity(self, harness_scenario):
        self._stolen_key(harness_scenario, LatusCswCircuit())
