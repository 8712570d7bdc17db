"""Unit tests for the copy-on-write containers and CoW state snapshots.

Covers :mod:`repro.core.cow` directly, the snapshot isolation of
:class:`~repro.core.cctp.CctpState` (its registry of immutable sidechain
entries and its one nullifier set, both copy-on-write), the block-hash
chain overlay in :mod:`repro.mainchain.chain`, and end-to-end snapshot
independence of :class:`MainchainState`.
"""

import pytest

from repro.core.cow import MAX_LAYERS, CowDict, CowSet
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

    def test_compaction_bounds_layer_count(self):
        d = CowDict({i: i for i in range(100)})
        for i in range(200):
            d[1000 + i] = i
            d = d.copy()
        assert d.layer_count <= MAX_LAYERS + 1
        assert len(d) == 300
        assert d[50] == 50 and d[1000 + 199] == 199

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
