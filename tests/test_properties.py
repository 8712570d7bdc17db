"""Property-based tests (hypothesis) on core invariants (DESIGN.md §6)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epochs import EpochSchedule
from repro.core.safeguard import Safeguard
from repro.core.transfers import derive_ledger_id
from repro.crypto import field
from repro.crypto.field import MODULUS
from repro.crypto.fixed_merkle import FixedMerkleTree
from repro.crypto.merkle import MerkleTree, leaf_hash
from repro.crypto.mimc import mimc_compress
from repro.errors import SafeguardViolation
from repro.latus.mst import MerkleStateTree
from repro.latus.mst_delta import MstDelta
from repro.latus.utxo import Utxo

felems = st.integers(min_value=0, max_value=MODULUS - 1)
amounts = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestFieldProperties:
    @given(felems, felems)
    def test_add_commutative(self, a, b):
        assert field.add(a, b) == field.add(b, a)

    @given(felems, felems, felems)
    def test_mul_distributes(self, a, b, c):
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )

    @given(felems.filter(bool))
    def test_inverse_is_inverse(self, a):
        assert field.mul(a, field.inv(a)) == 1

    @given(felems)
    def test_neg_is_additive_inverse(self, a):
        assert field.add(a, field.neg(a)) == 0

    @given(felems)
    def test_serialization_roundtrip(self, a):
        assert field.element_from_bytes(field.element_to_bytes(a)) == a


class TestMimcProperties:
    @given(felems, felems, felems)
    @settings(max_examples=25)
    def test_permutation_injective_per_key(self, x1, x2, k):
        if x1 != x2:
            assert mimc_compress(x1, k) != mimc_compress(x2, k) or True
            # the underlying permutation is bijective:
            from repro.crypto.mimc import mimc_permutation

            assert mimc_permutation(x1, k) != mimc_permutation(x2, k)


class TestMerkleProperties:
    @given(st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=24))
    @settings(max_examples=30)
    def test_every_leaf_provable(self, blobs):
        leaves = [leaf_hash(b) for b in blobs]
        tree = MerkleTree(leaves)
        for i in range(len(leaves)):
            assert tree.prove(i).verify(tree.root)

    @given(
        st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=30)
    def test_proof_rejects_foreign_root(self, blobs, index):
        leaves = [leaf_hash(b) for b in blobs]
        tree = MerkleTree(leaves)
        index %= len(leaves)
        proof = tree.prove(index)
        foreign = MerkleTree(leaves + [leaf_hash(b"extra")])
        if foreign.root != tree.root:
            assert not proof.verify(foreign.root)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=63), felems, min_size=0, max_size=10
        )
    )
    @settings(max_examples=25)
    def test_fixed_tree_root_is_content_function(self, content):
        a, b = FixedMerkleTree(6), FixedMerkleTree(6)
        for pos, val in content.items():
            a.set_leaf(pos, val)
        for pos, val in sorted(content.items(), reverse=True):
            b.set_leaf(pos, val)
        assert a.root == b.root

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=63),
            felems.filter(bool),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25)
    def test_fixed_tree_write_then_clear_roundtrip(self, content):
        tree = FixedMerkleTree(6)
        empty = tree.root
        for pos, val in content.items():
            tree.set_leaf(pos, val)
        for pos in content:
            tree.clear_leaf(pos)
        assert tree.root == empty


class TestMstProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1, max_size=12, unique=True))
    @settings(max_examples=20)
    def test_add_remove_roundtrip(self, nonces):
        mst = MerkleStateTree(10)
        empty = mst.root
        added = []
        for nonce in nonces:
            u = Utxo(addr=1, amount=5, nonce=nonce)
            if mst.can_add(u):
                mst.add(u)
                added.append(u)
        for u in added:
            mst.remove(u)
        assert mst.root == empty

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1, max_size=10, unique=True))
    @settings(max_examples=20)
    def test_touched_equals_modified_slots(self, nonces):
        mst = MerkleStateTree(10)
        expected = set()
        for nonce in nonces:
            u = Utxo(addr=1, amount=5, nonce=nonce)
            if mst.can_add(u):
                expected.add(mst.add(u))
        assert mst.touched_positions == expected
        delta = MstDelta.from_positions(10, mst.touched_positions)
        assert all(delta.bit(p) == 1 for p in expected)
        assert sum(delta.bit(i) for i in range(delta.capacity)) == len(expected)


class TestSafeguardProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["deposit", "withdraw"]), amounts),
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_balance_never_negative(self, operations):
        ledger = derive_ledger_id("prop-sg")
        sg = Safeguard()
        sg.open(ledger)
        shadow = 0
        for op, amount in operations:
            if op == "deposit":
                sg.deposit(ledger, amount)
                shadow += amount
            else:
                try:
                    sg.withdraw(ledger, amount)
                    shadow -= amount
                except SafeguardViolation:
                    assert amount > shadow
        assert sg.balance(ledger) == shadow >= 0


class TestEpochProperties:
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60)
    def test_schedule_consistency(self, start, epoch_len, submit_len, offset):
        submit_len = min(submit_len, epoch_len)
        schedule = EpochSchedule(
            start_block=start, epoch_len=epoch_len, submit_len=submit_len
        )
        height = start + offset
        epoch = schedule.epoch_of_height(height)
        # height lies inside its epoch's range
        assert schedule.first_height(epoch) <= height <= schedule.last_height(epoch)
        # submission window sits entirely inside the next epoch
        window = schedule.submission_window(epoch)
        assert window.start == schedule.first_height(epoch + 1)
        assert window.stop - window.start == submit_len
        # ceasing strictly after the window
        assert schedule.ceasing_height(epoch) == window.stop
        # submittable_epoch is the inverse of the window relation
        submittable = schedule.submittable_epoch(height)
        if submittable is not None:
            assert schedule.in_submission_window(submittable, height)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=50),
        st.data(),
    )
    @settings(max_examples=60)
    def test_a_missed_epoch_ceases_before_the_next_window_opens(
        self, start, epoch_len, data
    ):
        """Adopted epochs are contiguous from 0: missing epoch ``i`` ceases
        the sidechain no later than epoch ``i + 1``'s first submission
        height, so the CCTP may take an entry's certificate count as its
        earliest uncertified epoch."""
        submit_len = data.draw(st.integers(min_value=1, max_value=epoch_len))
        epoch = data.draw(st.integers(min_value=0, max_value=1000))
        schedule = EpochSchedule(
            start_block=start, epoch_len=epoch_len, submit_len=submit_len
        )
        assert schedule.ceasing_height(epoch) <= schedule.submission_window(epoch + 1).start


class TestCommitmentTreeProperties:
    """§4.1.3 over random activity sets: presence proofs for every active
    sidechain, absence proofs for every inactive one, never both."""

    @given(
        st.sets(st.integers(min_value=0, max_value=40), min_size=0, max_size=12),
        st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_presence_and_absence_partition(self, active_ids, probe_ids):
        from repro.core.commitment import build_commitment
        from repro.core.transfers import ForwardTransfer, derive_ledger_id

        fts = [
            ForwardTransfer(
                ledger_id=derive_ledger_id(f"prop-sc-{i}"),
                receiver_metadata=b"",
                amount=i + 1,
            )
            for i in sorted(active_ids)
        ]
        tree = build_commitment(fts, [], [])
        active_ledgers = {ft.ledger_id for ft in fts}
        for probe in sorted(probe_ids):
            ledger = derive_ledger_id(f"prop-sc-{probe}")
            if ledger in active_ledgers:
                assert tree.prove_presence(ledger).verify(tree.root)
                import pytest as _pytest

                from repro.errors import MerkleError

                with _pytest.raises(MerkleError):
                    tree.prove_absence(ledger)
            else:
                assert tree.prove_absence(ledger).verify(tree.root)

    @given(st.sets(st.integers(min_value=0, max_value=30), min_size=2, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_cross_tree_proofs_fail(self, active_ids):
        from repro.core.commitment import build_commitment
        from repro.core.transfers import ForwardTransfer, derive_ledger_id

        ids = sorted(active_ids)
        fts = [
            ForwardTransfer(
                ledger_id=derive_ledger_id(f"xp-{i}"), receiver_metadata=b"", amount=1
            )
            for i in ids
        ]
        tree_full = build_commitment(fts, [], [])
        tree_partial = build_commitment(fts[:-1], [], [])
        target = fts[0].ledger_id
        proof = tree_full.prove_presence(target)
        if tree_full.root != tree_partial.root:
            assert not proof.verify(tree_partial.root)
