"""Unit tests for recursive composition (repro.snark.recursive) — Def. 2.5."""

import pytest

from repro.crypto.field import MODULUS
from repro.errors import SnarkError, StateTransitionError, UnsatisfiedConstraint
from repro.snark.recursive import (
    CompositionStats,
    RecursiveComposer,
    TransitionProof,
    merge_plan,
)


class CounterSystem:
    """A toy transition system: state is an int, transitions add to it."""

    name = "test-counter"

    def apply(self, transition: int, state: int) -> int:
        if transition < 0:
            raise StateTransitionError("negative step")
        return state + transition

    def digest(self, state: int) -> int:
        return state % MODULUS

    def synthesize_transition(self, builder, state, transition, next_state):
        s = builder.alloc(state)
        t = builder.alloc(transition)
        n = builder.alloc(next_state)
        builder.enforce_equal(builder.add(s, t), n, "counter/step")


@pytest.fixture(scope="module")
def composer():
    return RecursiveComposer(CounterSystem())


class TestBaseProofs:
    def test_base_roundtrip(self, composer):
        proof, next_state = composer.prove_base(10, 5)
        assert next_state == 15
        assert proof.public_input == (10, 15)
        assert proof.span == 1 and proof.depth == 0 and not proof.is_merge
        assert composer.verify(proof)

    def test_invalid_transition_cannot_be_proven(self, composer):
        with pytest.raises(StateTransitionError):
            composer.prove_base(10, -1)

    def test_stats_recorded(self, composer):
        stats = CompositionStats()
        composer.prove_base(0, 1, stats)
        assert stats.base_proofs == 1
        assert stats.constraints >= 1


class TestMergeProofs:
    def test_merge_adjacent(self, composer):
        p1, s1 = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(s1, 4)
        merged = composer.merge(p1, p2)
        assert merged.public_input == (0, 7)
        assert merged.span == 2 and merged.depth == 1 and merged.is_merge
        assert composer.verify(merged)

    def test_merge_non_adjacent_rejected(self, composer):
        p1, _ = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(100, 4)
        with pytest.raises(SnarkError):
            composer.merge(p1, p2)

    def test_merge_of_merges(self, composer):
        proofs = []
        state = 0
        for step in (1, 2, 3, 4):
            p, state = composer.prove_base(state, step)
            proofs.append(p)
        m1 = composer.merge(proofs[0], proofs[1])
        m2 = composer.merge(proofs[2], proofs[3])
        root = composer.merge(m1, m2)
        assert root.public_input == (0, 10)
        assert root.depth == 2
        assert composer.verify(root)

    def test_forged_child_rejected(self, composer):
        p1, s1 = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(s1, 4)
        forged = TransitionProof(
            from_digest=p2.from_digest,
            to_digest=p2.to_digest,
            proof=p1.proof,  # wrong proof bytes for this range
            is_merge=False,
            span=1,
            depth=0,
        )
        with pytest.raises(UnsatisfiedConstraint):
            composer.merge(p1, forged)

    def test_verify_distinguishes_base_and_merge_keys(self, composer):
        p1, s1 = composer.prove_base(0, 3)
        p2, _ = composer.prove_base(s1, 4)
        merged = composer.merge(p1, p2)
        # present the merge proof as a base proof: must fail
        disguised = TransitionProof(
            from_digest=merged.from_digest,
            to_digest=merged.to_digest,
            proof=merged.proof,
            is_merge=False,
            span=merged.span,
            depth=merged.depth,
        )
        assert not composer.verify(disguised)


class TestSequences:
    def test_prove_sequence_matches_fig_11(self, composer):
        root, final, stats = composer.prove_sequence(0, [1, 2, 3, 4, 5, 6, 7, 8])
        assert final == 36
        assert root.span == 8
        assert stats.base_proofs == 8
        assert stats.merge_proofs == 7  # full binary merge of 8 leaves
        assert stats.tree_depth == 3
        assert composer.verify(root)

    def test_odd_length_sequence(self, composer):
        root, final, stats = composer.prove_sequence(0, [1, 1, 1, 1, 1])
        assert final == 5 and root.span == 5
        assert stats.base_proofs == 5 and stats.merge_proofs == 4

    def test_single_transition_sequence(self, composer):
        root, final, stats = composer.prove_sequence(7, [3])
        assert final == 10
        assert not root.is_merge
        assert stats.merge_proofs == 0

    def test_empty_sequence_rejected(self, composer):
        with pytest.raises(SnarkError):
            composer.prove_sequence(0, [])

    def test_merge_all_empty_rejected(self, composer):
        with pytest.raises(SnarkError):
            composer.merge_all([])

    def test_invalid_step_aborts_sequence(self, composer):
        with pytest.raises(StateTransitionError):
            composer.prove_sequence(0, [1, -2, 3])


class TestMergePlan:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_plan_is_one_balanced_tree(self, n):
        plan = merge_plan(n)
        # the leaves each node covers, as a half-open range
        covers = {(0, i): (i, i + 1) for i in range(n)}
        children = []
        for step in plan:
            assert step.key not in covers, "a node is built twice"
            left, right = covers[step.left_key], covers[step.right_key]
            assert left[1] == right[0], "children are not adjacent, left to right"
            covers[step.key] = (left[0], right[1])
            children += [step.left_key, step.right_key]
        root = plan[-1].key if plan else (0, 0)
        assert sorted(children) == sorted(set(covers) - {root})
        assert covers[root] == (0, n)
        assert root[0] == (n - 1).bit_length()  # ceil(log2 n)
        assert [step.level for step in plan] == sorted(step.level for step in plan)

    def test_empty_plan_rejected(self):
        with pytest.raises(SnarkError):
            merge_plan(0)
