"""PR 9: page-cache correctness for the pluggable MST node stores.

Everything here enforces one invariant — ``PagedNodeStore`` is
observationally identical to ``DictNodeStore`` (same roots, same proofs,
same leaf enumeration) no matter how hard the cache is starved.  The
spill/load machinery may only ever change *where* a node lives, never what
any read returns.
"""

import gc

import pytest

from repro import observability
from repro.crypto.fixed_merkle import FixedMerkleTree
from repro.crypto.keys import KeyPair
from repro.errors import StorageError
from repro.latus.mst import MerkleStateTree
from repro.latus.utxo import Utxo
from repro.scenarios import ZendooHarness
from repro.storage.pages import (
    DictNodeStore,
    FilePageBacking,
    PagedNodeStore,
    decode_page,
    encode_page,
)

DEPTH = 10


@pytest.fixture
def backing(tmp_path):
    """The one page backing a store has: a scratch file in ``tmp_path``."""
    backing = FilePageBacking(tmp_path)
    yield backing
    backing.close()


def _page_counter(name: str) -> int:
    """Current value of one ``repro_mst_page_*_total`` registry counter."""
    return int(observability.registry().counter(f"repro_mst_page_{name}_total").value())

# (page_size, cache_pages): generous, mid, and pathological (one resident
# 8-node page, so nearly every access crosses the spill/load boundary)
PAGED_CONFIGS = [(1024, 256), (8, 3), (8, 1)]


def _positions(count: int, seed: int = 1) -> list[int]:
    """Deterministic scattered positions, pairwise distinct."""
    out: set[int] = set()
    x = seed
    while len(out) < count:
        x = (x * 1103515245 + 12345) % (1 << 31)
        out.add(x % (1 << DEPTH))
    return sorted(out)


class TestPageCodec:
    def test_roundtrip(self):
        entries = {0: 1, 7: (1 << 254) - 3, 1023: 42}
        assert decode_page(encode_page(entries)) == entries

    def test_empty_page(self):
        assert decode_page(encode_page({})) == {}

    def test_encoding_is_canonical(self):
        # same entries in any insertion order encode to the same bytes
        a = {3: 30, 1: 10, 2: 20}
        b = {1: 10, 2: 20, 3: 30}
        assert encode_page(a) == encode_page(b)


def _resident_gauge() -> int:
    return int(observability.registry().gauge("repro_mst_resident_pages").value())


class TestTileGeometry:
    def test_one_path_is_three_tiles_at_depth_20(self, backing):
        # 10-level tiles: levels 0-9, 10-19 and the root each take one page
        store = PagedNodeStore(backing, page_size=1024, cache_pages=64)
        tree = FixedMerkleTree(20, node_store=store)
        position = 0xB5A5A
        tree.set_leaf(position, 99)
        writes = _page_counter("flushes")
        store.flush()
        assert _page_counter("flushes") - writes == 3
        assert sorted(key for key, _ in store._table.items()) == [
            (0, position >> 9),
            (1, position >> 19),
            (2, 0),
        ]
        reference = FixedMerkleTree(20, node_store=DictNodeStore())
        reference.set_leaf(position, 99)
        assert tree.root == reference.root
        assert tree.prove(position) == reference.prove(position)

    def test_page_size_one_is_refused(self, backing):
        # a tile of k levels needs page_size = 2**k with k >= 1
        with pytest.raises(StorageError):
            PagedNodeStore(backing, page_size=1)


class TestParityFuzz:
    @pytest.mark.parametrize("page_size,cache_pages", PAGED_CONFIGS)
    def test_bulk_insert_roots_and_proofs_match_dict(self, page_size, cache_pages, backing):
        positions = _positions(120)
        updates = [(p, p + 11) for p in positions]
        reference = FixedMerkleTree(DEPTH, node_store=DictNodeStore())
        reference.set_leaves(updates)
        paged = FixedMerkleTree(
            DEPTH,
            node_store=PagedNodeStore(backing, page_size=page_size, cache_pages=cache_pages),
        )
        paged.set_leaves(updates)
        assert paged.root == reference.root
        assert paged.occupied_count == reference.occupied_count
        assert paged.occupied_positions() == reference.occupied_positions()
        for p in positions[::7]:
            assert paged.prove(p) == reference.prove(p)

    @pytest.mark.parametrize("page_size,cache_pages", PAGED_CONFIGS)
    def test_mixed_set_clear_sequence(self, page_size, cache_pages, backing):
        # interleaved single-leaf writes, clears and re-writes: the paged
        # store must track empty-subtree deletions exactly like the dict
        reference = FixedMerkleTree(DEPTH, node_store=DictNodeStore())
        paged = FixedMerkleTree(
            DEPTH,
            node_store=PagedNodeStore(backing, page_size=page_size, cache_pages=cache_pages),
        )
        positions = _positions(60, seed=9)
        for step, p in enumerate(positions):
            for tree in (reference, paged):
                tree.set_leaf(p, step + 1)
            if step % 3 == 0:
                victim = positions[step // 2]
                for tree in (reference, paged):
                    tree.clear_leaf(victim)
            assert paged.root == reference.root
        assert paged.occupied_positions() == reference.occupied_positions()

    def test_eviction_mid_apply_batch(self, backing):
        # an MST batch bigger than the whole cache: pages spill and reload
        # *during* one apply_batch without corrupting the rehash
        utxos = []
        seen: set[int] = set()
        nonce = 0
        while len(utxos) < 200:
            u = Utxo(addr=1, amount=5, nonce=nonce)
            nonce += 1
            if (pos := u.position(DEPTH)) not in seen:
                seen.add(pos)
                utxos.append(u)
        reference = MerkleStateTree(DEPTH)
        reference.apply_batch(add=utxos)
        paged = MerkleStateTree(
            DEPTH, node_store=PagedNodeStore(backing, page_size=8, cache_pages=2)
        )
        paged.apply_batch(add=utxos[:150])
        paged.apply_batch(add=utxos[150:], remove=utxos[:10])
        reference2 = MerkleStateTree(DEPTH)
        reference2.apply_batch(add=utxos)
        reference2.apply_batch(remove=utxos[:10])
        assert paged.root == reference2.root
        assert paged.occupied_count == reference2.occupied_count

    def test_proof_generation_forces_cold_loads(self, backing):
        # fill, flush everything out through a 1-page cache, then prove:
        # every sibling read is a cold load from the backing
        store = PagedNodeStore(backing, page_size=8, cache_pages=1)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        positions = _positions(100, seed=4)
        tree.set_leaves([(p, p + 1) for p in positions])
        store.flush()
        reference = FixedMerkleTree(DEPTH, node_store=DictNodeStore())
        reference.set_leaves([(p, p + 1) for p in positions])
        loads_before = _page_counter("loads")
        for p in positions:
            assert tree.prove(p) == reference.prove(p)
        assert _page_counter("loads") > loads_before

    def test_certified_epochs_identical_across_stores(self, tmp_path):
        """Two certified harness epochs per store: the chain digest and the
        epoch certificate bytes the MC adopts do not depend on the store
        (an in-memory node keeps the dict store, a durable one pages)."""
        stores = [
            {},
            {"data_dir": tmp_path / "wide", "mst_page_size": 1024, "mst_cache_pages": 256},
            {"data_dir": tmp_path / "narrow", "mst_page_size": 8, "mst_cache_pages": 1},
        ]
        views = []
        for kwargs in stores:
            harness = ZendooHarness()
            harness.mine(2)
            sc = harness.create_sidechain("paged-parity", epoch_len=4, submit_len=2, **kwargs)
            harness.forward_transfer(sc, KeyPair.from_seed("paged-parity/user"), 75_000)
            harness.run_epochs(sc, 2)
            views.append(
                (
                    sc.node.tip_hash,
                    sc.node.state.digest(),
                    [c.encode() for c in sc.node.certificates],
                )
            )
            paged = isinstance(sc.node.state.mst.node_store, PagedNodeStore)
            assert paged == ("data_dir" in kwargs)
            sc.node.close()
        assert views[0][2], "no epoch was certified"
        assert views[1] == views[0] and views[2] == views[0]


class TestCopyOnWrite:
    def test_copies_are_independent(self, backing):
        original = FixedMerkleTree(
            DEPTH, node_store=PagedNodeStore(backing, page_size=8, cache_pages=4)
        )
        original.set_leaves([(p, p + 1) for p in _positions(50)])
        root = original.root
        clone = original.copy()
        assert clone.root == root
        clone.set_leaf(_positions(50)[0], 999)
        assert original.root == root
        assert clone.root != root
        # and the original can keep writing without touching the clone
        clone_root = clone.root
        original.set_leaf(_positions(50)[1], 888)
        assert clone.root == clone_root

    def test_copy_shares_clean_pages(self, backing):
        store = PagedNodeStore(backing, page_size=8, cache_pages=4)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        tree.set_leaves([(p, p + 1) for p in _positions(80)])
        target = _positions(80)[0]
        tree.set_leaf(target, 7)
        clone_store = tree.copy().node_store
        # copy() flushes into the backing's shared page cache: the clone
        # owns no pages of its own, its table is layered over the
        # original's, and the path the parent just wrote (4 tiles of 3
        # levels at depth 10) is read without a single load
        assert clone_store.describe()["dirty_pages"] == 0
        assert (
            clone_store.describe()["spilled_pages"]
            == store.describe()["spilled_pages"]
        )
        loads_before = _page_counter("loads")
        for level in range(DEPTH + 1):
            assert clone_store.get(level, target >> level) == store.get(level, target >> level)
        assert _page_counter("loads") == loads_before


class TestFileBacking:
    def test_spill_reload_roundtrip(self, backing):
        store = PagedNodeStore(backing, page_size=8, cache_pages=2)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        updates = [(p, p + 3) for p in _positions(90)]
        tree.set_leaves(updates)
        root = tree.root
        store.flush()
        backing.sync()

        # with every decoded page evicted, a copy of the store reads each
        # page back from the file: byte-identical reads without re-writing
        # anything
        backing.trim(0)
        loads, size = _page_counter("loads"), backing.describe()["bytes"]
        reopened = store.copy()
        tree2 = FixedMerkleTree(DEPTH, node_store=reopened)
        assert tree2.root == root
        assert sorted(reopened.leaf_items()) == sorted(updates)
        assert _page_counter("loads") > loads
        assert backing.describe()["bytes"] == size

    def test_the_page_file_has_no_name(self, tmp_path):
        # the pages live in an unnamed scratch file: the directory shows
        # nothing while the backing is open, and nothing after it closes
        backing = FilePageBacking(tmp_path)
        store = PagedNodeStore(backing, page_size=8, cache_pages=1)
        FixedMerkleTree(DEPTH, node_store=store).set_leaves([(p, p) for p in _positions(40)])
        store.flush()
        assert backing.describe()["bytes"] > 0
        assert list(tmp_path.iterdir()) == []
        backing.close()
        assert list(tmp_path.iterdir()) == []

    def test_leaf_items_does_not_evict_working_set(self, backing):
        # scanning every leaf page must not admit spilled pages into the
        # cache (a full scan would otherwise wipe the resident working set)
        store = PagedNodeStore(backing, page_size=8, cache_pages=2)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        tree.set_leaves([(p, p + 1) for p in _positions(64)])
        store.flush()
        resident_before = store.describe()["resident_pages"]
        list(store.leaf_items())
        assert store.describe()["resident_pages"] == resident_before


class TestObservability:
    def test_registry_counters_move_under_cache_pressure(self, backing):
        before = {k: _page_counter(k) for k in ("hits", "misses", "evictions")}
        store = PagedNodeStore(backing, page_size=8, cache_pages=1)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        tree.set_leaves([(p, p + 1) for p in _positions(40)])
        store.flush()
        flushes_mark = _page_counter("flushes")
        assert _page_counter("hits") > before["hits"]
        assert _page_counter("misses") > before["misses"]
        assert _page_counter("evictions") > before["evictions"]
        # flushing an already-clean store is a no-op
        store.flush()
        assert _page_counter("flushes") == flushes_mark

    def test_dropped_copies_leave_resident_gauge_alone(self, tmp_path):
        gc.collect()
        start = _resident_gauge()
        backing = FilePageBacking(tmp_path)
        store = PagedNodeStore(backing, page_size=8, cache_pages=6)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        positions = _positions(40)
        tree.set_leaves([(p, p + 1) for p in positions])
        store.flush()
        warm = _resident_gauge()
        assert 0 < warm - start == store.describe()["clean_pages"] <= 6
        copies = [tree.copy() for _ in range(100)]
        for copy, p in zip(copies, positions * 3):
            assert copy.get_leaf(p) == p + 1
        del copies, copy
        gc.collect()
        assert _resident_gauge() == warm
        backing.close()
        assert _resident_gauge() == start

    def test_describe_reports_cache_shape(self, backing):
        store = PagedNodeStore(backing, page_size=8, cache_pages=1)
        tree = FixedMerkleTree(DEPTH, node_store=store)
        tree.set_leaves([(p, p + 1) for p in _positions(40)])
        info = store.describe()
        assert info["kind"] == "paged"
        assert info["page_size"] == 8
        assert info["cache_pages"] == 1
        assert info["clean_pages"] + info["dirty_pages"] <= 1
        assert info["spilled_pages"] > 0
