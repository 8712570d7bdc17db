"""Unit tests for the copy-on-write containers and CoW state snapshots.

Covers :mod:`repro.core.cow` directly (with a stateful differential test
against plain-dict models), the snapshot isolation of
:class:`~repro.core.cctp.CctpState` (its registry of immutable sidechain
entries and its one nullifier set, both copy-on-write), the block-hash
chain overlay in :mod:`repro.mainchain.chain`, and end-to-end snapshot
independence of :class:`MainchainState`.
"""

import gc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.cow import CowDict, CowSet
from repro.core.cctp import CctpState, SidechainStatus
from repro.core.transfers import ForwardTransfer
from repro.errors import UnknownSidechain
from repro.mainchain.chain import BlockHashChain

from tests import test_cctp
from tests.test_cctp import fake_block_hash, make_cert, make_config


class TestCowDict:
    def test_mapping_surface(self):
        d = CowDict({"a": 1})
        d["b"] = 2
        assert d["a"] == 1 and d["b"] == 2
        assert d.get("c") is None and d.get("c", 9) == 9
        assert "a" in d and "c" not in d
        assert len(d) == 2 and bool(d)
        assert sorted(d.keys()) == ["a", "b"]
        assert sorted(d.items()) == [("a", 1), ("b", 2)]

    def test_delete_and_tombstones(self):
        d = CowDict({"a": 1, "b": 2})
        snapshot = d.copy()
        del d["a"]
        assert "a" not in d and len(d) == 1
        assert snapshot["a"] == 1  # tombstone shadows, never mutates layers
        d.discard("missing")  # no-op
        with pytest.raises(KeyError):
            d.pop("a")
        assert d.pop("a", "dflt") == "dflt"

    def test_overwrite_keeps_len(self):
        d = CowDict({"a": 1})
        d["a"] = 2
        assert len(d) == 1 and d["a"] == 2

    def test_setdefault(self):
        d = CowDict()
        assert d.setdefault("k", 5) == 5
        assert d.setdefault("k", 9) == 5

    def test_copy_independence_both_directions(self):
        original = CowDict({"shared": 0})
        clone = original.copy()
        original["only-original"] = 1
        clone["only-clone"] = 2
        del clone["shared"]
        assert "only-clone" not in original and original["shared"] == 0
        assert "only-original" not in clone and "shared" not in clone

    def test_deep_snapshot_chains_stay_correct(self):
        d = CowDict()
        snapshots = []
        for i in range(50):
            d[i] = i * 10
            snapshots.append((i, d.copy()))
        for upto, snap in snapshots:
            assert len(snap) == upto + 1
            assert snap[upto] == upto * 10
            assert (upto + 1) not in snap

    def test_a_long_copy_chain_keeps_one_dict(self):
        d = CowDict({i: i for i in range(100)})
        kept = []
        for i in range(200):
            d[1000 + i] = i
            kept.append(d)
            d = d.copy()
        assert len(d) == 300
        assert d[50] == 50 and d[1000 + 199] == 199
        # one flat dict for the whole family, held by the live version
        # (the last kept handle shares it: nothing was written since)
        assert kept[-1]._version is d._version and d._version.data is not None
        assert all(k._version.data is None for k in kept[:-1])
        assert kept[0][1000] == 0 and 1001 not in kept[0]
        del kept
        gc.collect()
        # the dropped versions freed their undo records
        assert d._version.back() is None

    def test_iterating_an_old_version_reroots_without_changing_content(self):
        d = CowDict({"a": 1})
        old = d.copy()
        d["b"] = 2
        del d["a"]
        assert dict(old.items()) == {"a": 1}  # re-roots the family onto old
        assert dict(d.items()) == {"b": 2} and len(d) == 1 and len(old) == 1
        d["c"] = 3
        assert old.get("c") is None and old["a"] == 1

    def test_clear(self):
        d = CowDict({"a": 1})
        snap = d.copy()
        d.clear()
        assert len(d) == 0 and not d
        assert snap["a"] == 1


class TestCowSet:
    def test_set_surface(self):
        s = CowSet([b"x"])
        s.add(b"y")
        assert b"x" in s and b"y" in s and len(s) == 2
        s.discard(b"x")
        assert b"x" not in s
        s.discard(b"missing")
        with pytest.raises(KeyError):
            s.remove(b"missing")
        assert sorted(s) == [b"y"]

    def test_copy_independence(self):
        s = CowSet([b"n1"])
        clone = s.copy()
        clone.add(b"n2")
        s.discard(b"n1")
        assert b"n1" not in s
        assert b"n1" in clone and b"n2" in clone
        assert b"n2" not in s


KEYS = st.integers(min_value=0, max_value=5)
VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
PICK = st.integers(min_value=0, max_value=1_000)


class CowDictFamily(RuleBasedStateMachine):
    """Handles of one :class:`CowDict` family, each with a plain-dict model:
    copy any kept version, write or read any version, drop one; after
    every step every kept version equals its model."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[CowDict, dict]] = [(CowDict({0: 0}), {0: 0})]

    def _pick(self, i: int) -> tuple[CowDict, dict]:
        return self.kept[i % len(self.kept)]

    @rule(i=PICK)
    def copy(self, i):
        handle, model = self._pick(i)
        self.kept.append((handle.copy(), dict(model)))

    @rule(i=PICK, key=KEYS, value=VALUES)
    def set(self, i, key, value):
        handle, model = self._pick(i)
        handle[key] = model[key] = value

    @rule(i=PICK, key=KEYS)
    def pop(self, i, key):
        handle, model = self._pick(i)
        if key in model:
            assert handle.pop(key) == model.pop(key)
        else:
            with pytest.raises(KeyError):
                handle.pop(key)
            assert handle.pop(key, "default") == "default"

    @rule(i=PICK, key=KEYS)
    def discard(self, i, key):
        handle, model = self._pick(i)
        handle.discard(key)
        model.pop(key, None)

    @rule(i=PICK, key=KEYS, value=VALUES)
    def setdefault(self, i, key, value):
        handle, model = self._pick(i)
        assert handle.setdefault(key, value) == model.setdefault(key, value)

    @rule(i=PICK)
    def clear(self, i):
        handle, model = self._pick(i)
        handle.clear()
        model.clear()

    @rule(i=PICK, key=KEYS)
    def read(self, i, key):
        handle, model = self._pick(i)
        assert (key in handle) == (key in model)
        if key in model:
            assert handle[key] == model[key]
        else:
            with pytest.raises(KeyError):
                handle[key]

    @rule(i=PICK)
    def iterate(self, i):
        handle, model = self._pick(i)
        assert dict(handle.items()) == model
        assert sorted(handle) == sorted(model) == sorted(handle.keys())
        assert sorted(handle.values(), key=repr) == sorted(model.values(), key=repr)

    @precondition(lambda self: len(self.kept) > 1)
    @rule(i=PICK)
    def drop(self, i):
        del self.kept[i % len(self.kept)]

    @invariant()
    def every_kept_version_equals_its_model(self):
        for handle, model in self.kept:
            assert len(handle) == len(model) and bool(handle) == bool(model)
            for key in range(6):
                assert handle.get(key, "absent") == model.get(key, "absent")


class CowSetFamily(RuleBasedStateMachine):
    """The same for :class:`CowSet` handles against plain sets."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[CowSet, set]] = [(CowSet([0]), {0})]

    def _pick(self, i: int) -> tuple[CowSet, set]:
        return self.kept[i % len(self.kept)]

    @rule(i=PICK)
    def copy(self, i):
        handle, model = self._pick(i)
        self.kept.append((handle.copy(), set(model)))

    @rule(i=PICK, item=KEYS)
    def add(self, i, item):
        handle, model = self._pick(i)
        handle.add(item)
        model.add(item)

    @rule(i=PICK, item=KEYS)
    def remove(self, i, item):
        handle, model = self._pick(i)
        if item in model:
            handle.remove(item)
            model.remove(item)
        else:
            with pytest.raises(KeyError):
                handle.remove(item)

    @rule(i=PICK, item=KEYS)
    def discard(self, i, item):
        handle, model = self._pick(i)
        handle.discard(item)
        model.discard(item)

    @rule(i=PICK)
    def clear(self, i):
        handle, model = self._pick(i)
        handle.clear()
        model.clear()

    @rule(i=PICK)
    def iterate(self, i):
        handle, model = self._pick(i)
        assert set(handle) == model

    @precondition(lambda self: len(self.kept) > 1)
    @rule(i=PICK)
    def drop(self, i):
        del self.kept[i % len(self.kept)]

    @invariant()
    def every_kept_version_equals_its_model(self):
        for handle, model in self.kept:
            assert len(handle) == len(model)
            assert all((item in handle) == (item in model) for item in range(6))


SHORT = settings(max_examples=50, stateful_step_count=40, deadline=None)
LONG = settings(max_examples=400, stateful_step_count=60, deadline=None)


class TestCowFamiliesAgainstModels:
    def test_cow_dict(self):
        run_state_machine_as_test(CowDictFamily, settings=SHORT)

    def test_cow_set(self):
        run_state_machine_as_test(CowSetFamily, settings=SHORT)

    @pytest.mark.slow
    def test_cow_dict_long(self):
        run_state_machine_as_test(CowDictFamily, settings=LONG)

    @pytest.mark.slow
    def test_cow_set_long(self):
        run_state_machine_as_test(CowSetFamily, settings=LONG)


class TestBlockHashChain:
    def test_append_index_iterate(self):
        chain = BlockHashChain([b"g"])
        chain.append(b"a")
        chain.append(b"b")
        assert len(chain) == 3
        assert chain[0] == b"g" and chain[2] == b"b" and chain[-1] == b"b"
        assert list(chain) == [b"g", b"a", b"b"]
        with pytest.raises(IndexError):
            chain[3]

    def test_linear_snapshots_share_structure(self):
        chain = BlockHashChain([b"g"])
        snap = chain.copy()
        chain.append(b"a")
        assert len(snap) == 1 and list(snap) == [b"g"]
        assert chain[-1] == b"a"

    def test_fork_divergence(self):
        chain = BlockHashChain([b"g"])
        branch_a = chain.copy()
        branch_b = chain.copy()
        branch_a.append(b"a1")  # claims the shared slot
        branch_b.append(b"b1")  # conflicts -> private overlay tail
        branch_a.append(b"a2")
        branch_b.append(b"b2")
        assert list(branch_a) == [b"g", b"a1", b"a2"]
        assert list(branch_b) == [b"g", b"b1", b"b2"]
        assert list(chain) == [b"g"]

    def test_overlay_survives_copy_and_fold(self):
        chain = BlockHashChain([b"g"])
        spoiler = chain.copy()
        spoiler.append(b"spoiler")
        expected = [b"g"]
        for i in range(200):  # crosses the fold threshold several times
            chain.append(b"h%d" % i)
            expected.append(b"h%d" % i)
            chain = chain.copy()
        assert list(chain) == expected
        assert chain[-1] == expected[-1]


class TestCctpSnapshotIsolation:
    def test_entry_mutation_does_not_leak_into_snapshot(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        snapshot = cctp.copy()

        cert = make_cert(epoch=0, quality=1, config=config)
        cctp.process_certificate(cert, 9, fake_block_hash)
        assert cctp.adopted_certificate(config.ledger_id, 0) is not None
        assert snapshot.adopted_certificate(config.ledger_id, 0) is None

    def test_parent_writes_after_copy_do_not_leak_either(self):
        """Entries are values: a write after copy() replaces the parent's entry
        and leaves the one the clone shares untouched."""
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        clone = cctp.copy()
        # parent mutates AFTER the copy: the clone must not see it
        cert = make_cert(epoch=0, quality=1, config=config)
        clone_entry_before = clone.sidechains[config.ledger_id]
        cctp.process_certificate(cert, 9, fake_block_hash)
        assert clone.sidechains[config.ledger_id] is clone_entry_before
        assert clone.adopted_certificate(config.ledger_id, 0) is None

    def test_nullifier_rollback_stays_private(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        snapshot = cctp.copy()
        btr = test_cctp.TestBtr()._btr()
        cctp.process_btr(btr, height=6)
        assert config.ledger_id + btr.nullifier in cctp.nullifiers
        assert config.ledger_id + btr.nullifier not in snapshot.nullifiers
        snapshot.process_btr(btr, height=6)

    def test_safeguard_balances_are_isolated(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        snapshot = cctp.copy()
        ft = ForwardTransfer(
            ledger_id=config.ledger_id, receiver_metadata=b"\x01" * 32, amount=500
        )
        cctp.process_forward_transfer(ft, height=config.start_block)
        assert cctp.balance(config.ledger_id) == 500
        assert snapshot.balance(config.ledger_id) == 0

    def test_unknown_sidechain_still_raises(self):
        with pytest.raises(UnknownSidechain):
            CctpState().entry(b"\x99" * 32)


class TestIndexedCeasing:
    def test_ceasing_fires_at_indexed_deadline(self):
        cctp = CctpState()
        config = make_config()  # start 5, epoch 4, submit 2
        cctp.register_sidechain(config, height=2)
        deadline = config.schedule.ceasing_height(0)
        assert cctp.advance_to_height(deadline - 1) == []
        assert cctp.advance_to_height(deadline) == [config.ledger_id]
        entry = cctp.sidechains[config.ledger_id]
        assert entry.status is SidechainStatus.CEASED
        assert entry.ceased_at_height == deadline

    def test_certificate_pushes_deadline_and_stale_slot_is_skipped(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        window_start = config.schedule.first_height(1)
        cctp.advance_to_height(window_start)
        cert = make_cert(epoch=0, quality=1, config=config)
        cctp.process_certificate(cert, window_start, fake_block_hash)
        cctp.seal_block(fake_block_hash(window_start))
        # the original epoch-0 deadline slot is now stale: nothing ceases
        assert cctp.advance_to_height(config.schedule.ceasing_height(0)) == []
        assert (
            cctp.sidechains[config.ledger_id].status is SidechainStatus.ACTIVE
        )
        # the pushed epoch-1 deadline still fires
        assert cctp.advance_to_height(config.schedule.ceasing_height(1)) == [
            config.ledger_id
        ]

    def test_jump_past_deadline_in_one_advance(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        deadline = config.schedule.ceasing_height(0)
        assert cctp.advance_to_height(deadline + 7) == [config.ledger_id]
        assert cctp.sidechains[config.ledger_id].ceased_at_height == deadline

    def test_snapshot_advances_independently(self):
        cctp = CctpState()
        config = make_config()
        cctp.register_sidechain(config, height=2)
        snapshot = cctp.copy()
        deadline = config.schedule.ceasing_height(0)
        assert cctp.advance_to_height(deadline) == [config.ledger_id]
        assert (
            snapshot.sidechains[config.ledger_id].status
            is SidechainStatus.ACTIVE
        )
        assert snapshot.advance_to_height(deadline) == [config.ledger_id]
