"""Unit tests for the Merkle State Tree (repro.latus.mst) — §5.2, Fig. 9."""

import random

import pytest

from repro import observability
from repro.crypto import mimc
from repro.errors import MstError
from repro.latus.mst import MerkleStateTree
from repro.latus.utxo import Utxo


def utxo(nonce: int, amount: int = 10) -> Utxo:
    return Utxo(addr=7, amount=amount, nonce=nonce)


@pytest.fixture
def mst() -> MerkleStateTree:
    return MerkleStateTree(depth=8)


class TestAddRemove:
    def test_add_then_contains(self, mst):
        u = utxo(1)
        position = mst.add(u)
        assert mst.contains(u)
        assert mst.slot_occupied(position)
        assert mst.occupied_count == 1

    def test_remove_restores_empty(self, mst):
        empty_root = mst.root
        u = utxo(1)
        mst.add(u)
        mst.remove(u)
        assert mst.root == empty_root
        assert not mst.contains(u)

    def test_collision_rejected(self, mst):
        u = utxo(1)
        mst.add(u)
        # a different utxo landing on the same slot (same nonce => same slot)
        other = Utxo(addr=9, amount=99, nonce=1)
        assert not mst.can_add(other)
        with pytest.raises(MstError):
            mst.add(other)

    def test_remove_wrong_utxo_rejected(self, mst):
        mst.add(utxo(1))
        with pytest.raises(MstError):
            mst.remove(Utxo(addr=9, amount=99, nonce=1))

    def test_remove_absent_rejected(self, mst):
        with pytest.raises(MstError):
            mst.remove(utxo(5))

    def test_root_deterministic_in_content(self):
        a, b = MerkleStateTree(8), MerkleStateTree(8)
        a.add(utxo(1))
        a.add(utxo(2))
        b.add(utxo(2))
        b.add(utxo(1))
        assert a.root == b.root

    def test_capacity(self, mst):
        assert mst.capacity == 256


class TestProofs:
    def test_membership_proof_verifies(self, mst):
        u = utxo(3)
        mst.add(u)
        proof = mst.prove(u)
        assert proof.leaf == u.leaf_value
        assert proof.verify(mst.root)

    def test_prove_absent_rejected(self, mst):
        with pytest.raises(MstError):
            mst.prove(utxo(3))

    def test_prove_position_for_empty_slot(self, mst):
        proof = mst.prove_position(17)
        assert proof.leaf == 0
        assert proof.verify(mst.root)

    def test_old_proof_fails_after_change(self, mst):
        u = utxo(3)
        mst.add(u)
        proof = mst.prove(u)
        mst.add(utxo(4))
        assert not proof.verify(mst.root)


class TestTouchedTracking:
    def test_add_and_remove_touch(self, mst):
        u = utxo(1)
        p1 = mst.add(u)
        p2 = mst.add(utxo(2))
        mst.remove(u)
        assert mst.touched_positions == {p1, p2}

    def test_reset_touched(self, mst):
        mst.add(utxo(1))
        mst.reset_touched()
        assert mst.touched_positions == frozenset()
        p = mst.add(utxo(2))
        assert mst.touched_positions == {p}


class TestApplyBatch:
    def test_batch_add_matches_sequential(self, mst):
        sequential = MerkleStateTree(8)
        utxos = [utxo(n) for n in range(12)]
        for u in utxos:
            if sequential.can_add(u):
                sequential.add(u)
        # keep the first utxo per slot — the set the sequential loop admitted
        batchable: dict[int, Utxo] = {}
        for u in utxos:
            batchable.setdefault(mst.position_of(u), u)
        mst.apply_batch(add=batchable.values())
        assert mst.root == sequential.root
        assert mst.occupied_count == sequential.occupied_count
        assert mst.touched_positions == sequential.touched_positions

    def test_batch_remove_and_add(self, mst):
        spent, kept, minted = utxo(1), utxo(2), utxo(3)
        mst.add(spent)
        mst.add(kept)
        removed, added = mst.apply_batch(add=[minted], remove=[spent])
        assert removed == [mst.position_of(spent)]
        assert added == [mst.position_of(minted)]
        assert not mst.contains(spent)
        assert mst.contains(kept)
        assert mst.contains(minted)

    def test_add_into_slot_freed_in_same_batch(self, mst):
        old = utxo(1)
        mst.add(old)
        # same nonce => same slot; the batch frees it first
        new = Utxo(addr=9, amount=50, nonce=1)
        mst.apply_batch(add=[new], remove=[old])
        assert mst.contains(new)
        assert not mst.contains(old)

    def test_collision_rejected_and_state_unchanged(self, mst):
        mst.add(utxo(1))
        root = mst.root
        with pytest.raises(MstError):
            mst.apply_batch(add=[utxo(2), Utxo(addr=9, amount=99, nonce=1)])
        assert mst.root == root
        assert not mst.contains(utxo(2))

    def test_intra_batch_slot_conflict_rejected(self, mst):
        with pytest.raises(MstError):
            mst.apply_batch(add=[utxo(1), Utxo(addr=9, amount=99, nonce=1)])

    def test_remove_absent_rejected_and_state_unchanged(self, mst):
        mst.add(utxo(1))
        root = mst.root
        with pytest.raises(MstError):
            mst.apply_batch(remove=[utxo(1), utxo(5)])
        assert mst.root == root
        assert mst.contains(utxo(1))

    def test_random_batches_match_sequential(self):
        rng = random.Random(0xC0FFEE)
        sequential, batched = MerkleStateTree(10), MerkleStateTree(10)
        live: list[Utxo] = []
        nonce = 0
        for _ in range(8):
            additions = []
            for _ in range(rng.randrange(0, 10)):
                u = utxo(nonce)
                nonce += 1
                if sequential.can_add(u) and all(
                    sequential.position_of(u) != sequential.position_of(a)
                    for a in additions
                ):
                    additions.append(u)
            removals = [u for u in live if rng.random() < 0.3]
            for u in removals:
                sequential.remove(u)
            for u in additions:
                sequential.add(u)
            batched.apply_batch(add=additions, remove=removals)
            live = [u for u in live if u not in removals] + additions
            assert batched.root == sequential.root
            assert batched.touched_positions == sequential.touched_positions

    def test_acceptance_batched_insert_fewer_compressions(self):
        """Acceptance: 256-leaf batch insert at depth 30 performs measurably
        fewer mimc_compress calls than 256 sequential set_leaf paths."""
        utxos = [utxo(n) for n in range(256)]
        sequential, batched = MerkleStateTree(30), MerkleStateTree(30)
        assert len({sequential.position_of(u) for u in utxos}) == len(utxos)

        compressions = observability.registry().counter("repro_mimc_compressions_total")

        mimc.clear_cache()
        before = compressions.value()
        for u in utxos:
            sequential.add(u)
        sequential_compressions = compressions.value() - before

        mimc.clear_cache()
        before = compressions.value()
        batched.apply_batch(add=utxos)
        batched_compressions = compressions.value() - before

        assert batched.root == sequential.root
        # distinct-ancestor rehashing must beat per-leaf path rehashing
        assert batched_compressions < sequential_compressions * 0.9


class TestCopy:
    def test_copy_independent(self, mst):
        mst.add(utxo(1))
        clone = mst.copy()
        clone.add(utxo(2))
        assert mst.root != clone.root
        assert mst.occupied_count == 1
        assert clone.occupied_count == 2

    def test_copy_preserves_touched(self, mst):
        p = mst.add(utxo(1))
        assert mst.copy().touched_positions == {p}
