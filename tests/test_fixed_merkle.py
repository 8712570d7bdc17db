"""Unit tests for fixed-depth field trees (repro.crypto.fixed_merkle)."""

import random

import pytest

from repro import observability
from repro.crypto import mimc
from repro.crypto.fixed_merkle import (
    EMPTY_LEAF,
    MAX_DEPTH,
    FieldMerkleProof,
    FixedMerkleTree,
    empty_root,
)
from repro.crypto.mimc import mimc_compress
from repro.errors import MerkleError


class TestEmptyRoots:
    def test_depth_zero_is_empty_leaf(self):
        assert empty_root(0) == EMPTY_LEAF

    def test_increasing_depths_differ(self):
        roots = {empty_root(d) for d in range(6)}
        assert len(roots) == 6

    def test_negative_depth_raises(self):
        with pytest.raises(MerkleError):
            empty_root(-1)

    def test_beyond_max_depth_raises(self):
        with pytest.raises(MerkleError):
            empty_root(MAX_DEPTH + 1)

    def test_table_matches_recursive_definition(self):
        # the precomputed table must satisfy the recurrence
        for depth in range(1, 12):
            child = empty_root(depth - 1)
            assert empty_root(depth) == mimc_compress(child, child)

    def test_max_depth_entry_exists(self):
        assert isinstance(empty_root(MAX_DEPTH), int)

    def test_fresh_tree_root_matches_empty_root(self):
        assert FixedMerkleTree(5).root == empty_root(5)


class TestConstruction:
    def test_capacity(self):
        assert FixedMerkleTree(4).capacity == 16

    def test_depth_bounds(self):
        with pytest.raises(MerkleError):
            FixedMerkleTree(0)
        with pytest.raises(MerkleError):
            FixedMerkleTree(64)


class TestLeafOperations:
    def test_set_get_roundtrip(self):
        tree = FixedMerkleTree(6)
        tree.set_leaf(13, 999)
        assert tree.get_leaf(13) == 999
        assert tree.is_occupied(13)
        assert not tree.is_occupied(12)

    def test_root_changes_on_write(self):
        tree = FixedMerkleTree(6)
        before = tree.root
        tree.set_leaf(0, 1)
        assert tree.root != before

    def test_clear_restores_empty_root(self):
        tree = FixedMerkleTree(6)
        empty = tree.root
        tree.set_leaf(5, 42)
        tree.clear_leaf(5)
        assert tree.root == empty
        assert tree.occupied_count == 0

    def test_occupied_tracking(self):
        tree = FixedMerkleTree(5)
        tree.set_leaf(1, 10)
        tree.set_leaf(7, 20)
        tree.set_leaf(1, 30)  # overwrite, not new slot
        assert tree.occupied_count == 2
        assert tree.occupied_positions() == [1, 7]

    def test_position_bounds(self):
        tree = FixedMerkleTree(3)
        with pytest.raises(MerkleError):
            tree.set_leaf(8, 1)
        with pytest.raises(MerkleError):
            tree.get_leaf(-1)

    def test_same_content_same_root(self):
        a, b = FixedMerkleTree(5), FixedMerkleTree(5)
        for t in (a, b):
            t.set_leaf(3, 7)
            t.set_leaf(9, 8)
        assert a.root == b.root
        assert a == b

    def test_write_order_does_not_matter(self):
        a, b = FixedMerkleTree(5), FixedMerkleTree(5)
        a.set_leaf(3, 7)
        a.set_leaf(9, 8)
        b.set_leaf(9, 8)
        b.set_leaf(3, 7)
        assert a.root == b.root


class TestProofs:
    def test_membership_proof(self):
        tree = FixedMerkleTree(8)
        tree.set_leaf(200, 123)
        proof = tree.prove(200)
        assert proof.leaf == 123
        assert proof.depth == 8
        assert proof.verify(tree.root)

    def test_non_membership_opening(self):
        tree = FixedMerkleTree(8)
        tree.set_leaf(3, 5)
        proof = tree.prove(100)
        assert proof.leaf == EMPTY_LEAF
        assert proof.verify(tree.root)

    def test_proof_invalid_after_update(self):
        tree = FixedMerkleTree(6)
        tree.set_leaf(10, 1)
        proof = tree.prove(10)
        tree.set_leaf(11, 2)
        assert not proof.verify(tree.root)

    def test_tampered_leaf_fails(self):
        tree = FixedMerkleTree(6)
        tree.set_leaf(10, 1)
        proof = tree.prove(10)
        bad = FieldMerkleProof(leaf=2, position=10, siblings=proof.siblings)
        assert not bad.verify(tree.root)

    def test_wrong_position_fails(self):
        tree = FixedMerkleTree(6)
        tree.set_leaf(10, 1)
        proof = tree.prove(10)
        bad = FieldMerkleProof(leaf=proof.leaf, position=11, siblings=proof.siblings)
        assert not bad.verify(tree.root)


class TestCopy:
    def test_copy_is_independent(self):
        tree = FixedMerkleTree(5)
        tree.set_leaf(2, 9)
        clone = tree.copy()
        clone.set_leaf(3, 1)
        assert tree.root != clone.root
        assert not tree.is_occupied(3)

    def test_copy_preserves_occupied_count(self):
        tree = FixedMerkleTree(5)
        tree.set_leaf(2, 9)
        tree.set_leaf(4, 3)
        clone = tree.copy()
        assert clone.occupied_count == 2
        clone.clear_leaf(2)
        assert clone.occupied_count == 1
        assert tree.occupied_count == 2


class TestSetLeaves:
    """Property tests: batched writes must match sequential set_leaf."""

    def test_equivalent_to_sequential_random(self):
        rng = random.Random(0xBA7C4)
        for _ in range(40):
            depth = rng.randrange(2, 10)
            capacity = 1 << depth
            # random pre-population
            pre = [(rng.randrange(capacity), rng.randrange(1, 100)) for _ in range(rng.randrange(0, 6))]
            # random update set including clears to EMPTY_LEAF and duplicates
            updates = [
                (
                    rng.randrange(capacity),
                    EMPTY_LEAF if rng.random() < 0.3 else rng.randrange(1, 1000),
                )
                for _ in range(rng.randrange(0, 24))
            ]
            sequential, batched = FixedMerkleTree(depth), FixedMerkleTree(depth)
            for position, value in pre:
                sequential.set_leaf(position, value)
                batched.set_leaf(position, value)
            for position, value in updates:
                sequential.set_leaf(position, value)
            batched.set_leaves(updates)
            assert batched.root == sequential.root
            assert batched.occupied_count == sequential.occupied_count
            assert batched._nodes == sequential._nodes

    def test_accepts_mapping(self):
        a, b = FixedMerkleTree(6), FixedMerkleTree(6)
        a.set_leaves({3: 7, 9: 8})
        b.set_leaf(3, 7)
        b.set_leaf(9, 8)
        assert a.root == b.root

    def test_later_duplicate_wins(self):
        a, b = FixedMerkleTree(6), FixedMerkleTree(6)
        a.set_leaves([(5, 1), (5, 2)])
        b.set_leaf(5, 2)
        assert a.root == b.root

    def test_empty_batch_is_noop(self):
        tree = FixedMerkleTree(6)
        tree.set_leaf(1, 4)
        before = tree.root
        tree.set_leaves([])
        tree.set_leaves({})
        assert tree.root == before

    def test_clear_batch_restores_empty_root(self):
        tree = FixedMerkleTree(6)
        tree.set_leaves({i: i + 1 for i in range(10)})
        tree.set_leaves({i: EMPTY_LEAF for i in range(10)})
        assert tree.root == empty_root(6)
        assert tree.occupied_count == 0
        assert tree._nodes == {}

    def test_out_of_range_rejected_before_mutation(self):
        tree = FixedMerkleTree(3)
        before = tree.root
        with pytest.raises(MerkleError):
            tree.set_leaves([(0, 5), (8, 1)])
        assert tree.root == before
        assert not tree.is_occupied(0)

    def test_proofs_valid_after_batch(self):
        tree = FixedMerkleTree(8)
        tree.set_leaves({i * 17 % 256: i + 1 for i in range(40)})
        for position in (0, 17, 34):
            assert tree.prove(position).verify(tree.root)

    def test_batch_hashes_each_dirty_ancestor_at_most_once(self):
        """A cold bulk insert of 128 contiguous leaves at depth 16 computes
        no more compressions than there are distinct interior nodes on
        their paths; one ``set_leaf`` per leaf rehashes every path."""
        depth, positions = 16, range(128)
        ancestors, frontier = 0, set(positions)
        for _ in range(depth):
            frontier = {p >> 1 for p in frontier}
            ancestors += len(frontier)
        compressions = observability.registry().counter("repro_mimc_compressions_total")

        def cold_compressions(build) -> int:
            mimc.clear_cache()
            before = compressions.value()
            build()
            return compressions.value() - before

        batched, sequential = FixedMerkleTree(depth), FixedMerkleTree(depth)
        batch = cold_compressions(lambda: batched.set_leaves([(p, p + 1) for p in positions]))
        single = cold_compressions(lambda: [sequential.set_leaf(p, p + 1) for p in positions])
        assert batched.root == sequential.root
        assert 0 < batch <= ancestors < single
