"""Experiment F9 — Fig. 9: the Merkle State Tree.

Regenerates the figure's depth-3 tree with occupied/empty slots and the
state-independent ``MST_Position`` function, then measures update and proof
costs versus tree depth (O(depth) MiMC compressions per update).
"""

import tempfile

import pytest

from repro.crypto import mimc
from repro.latus.mst import MerkleStateTree
from repro.latus.utxo import Utxo
from benchmarks.conftest import mimc_counters, mimc_delta


def utxo_at_position(depth: int, position: int, tag: int = 0) -> Utxo:
    nonce = tag << 32
    while Utxo(addr=1, amount=5, nonce=nonce).position(depth) != position:
        nonce += 1
    return Utxo(addr=1, amount=5, nonce=nonce)


class TestFig9Mst:
    def test_regenerates_fig9(self, benchmark):
        """Depth-3 MST with three occupied slots, as drawn in Fig. 9."""

        def build():
            mst = MerkleStateTree(3)
            for pos, tag in [(0, 1), (4, 2), (6, 3)]:
                mst.add(utxo_at_position(3, pos, tag))
            return mst

        mst = benchmark.pedantic(build, iterations=1, rounds=3)
        occupancy = ["utxo" if mst.slot_occupied(i) else "∅" for i in range(8)]
        assert occupancy == ["utxo", "∅", "∅", "∅", "utxo", "∅", "utxo", "∅"]
        # MST_Position is deterministic and state-independent
        u = utxo_at_position(3, 4, 2)
        assert mst.position_of(u) == 4
        benchmark.extra_info["occupancy"] = occupancy
        print(f"\nFig. 9 slots: {occupancy}")

    @pytest.mark.parametrize("depth", [8, 16, 24])
    def test_bench_update_vs_depth(self, benchmark, depth):
        mst = MerkleStateTree(depth)
        counter = iter(range(10**9))

        def add_one():
            mst.add(Utxo(addr=1, amount=5, nonce=next(counter)))

        benchmark.pedantic(add_one, iterations=1, rounds=10)
        benchmark.extra_info["depth"] = depth

    @pytest.mark.parametrize("depth", [8, 16, 24])
    def test_bench_membership_proof(self, benchmark, depth):
        mst = MerkleStateTree(depth)
        u = Utxo(addr=1, amount=5, nonce=42)
        mst.add(u)
        proof = benchmark(mst.prove, u)
        assert proof.verify(mst.root)
        benchmark.extra_info["depth"] = depth

    def test_bench_population_scaling(self, benchmark):
        """Sparse representation: inserting 500 UTXOs into a depth-20 tree
        (capacity ~1M) costs only occupied-path storage."""

        def populate():
            mst = MerkleStateTree(20)
            for nonce in range(500):
                u = Utxo(addr=1, amount=5, nonce=nonce)
                if mst.can_add(u):
                    mst.add(u)
            return mst

        mst = benchmark.pedantic(populate, iterations=1, rounds=1)
        assert mst.occupied_count >= 499
        benchmark.extra_info["occupied"] = mst.occupied_count


def _distinct_slot_utxos(depth: int, count: int) -> list[Utxo]:
    """``count`` UTXOs whose MST positions are pairwise distinct."""
    utxos: list[Utxo] = []
    seen: set[int] = set()
    nonce = 0
    while len(utxos) < count:
        u = Utxo(addr=1, amount=5, nonce=nonce)
        nonce += 1
        position = u.position(depth)
        if position not in seen:
            seen.add(position)
            utxos.append(u)
    return utxos


class TestMstBulkInsert:
    """The epoch-style bulk workload: many forward transfers landing in one
    state application, sequential ``add`` versus one ``apply_batch``."""

    DEPTH = 12
    N = 1024

    def test_bench_sequential_adds(self, benchmark):
        utxos = _distinct_slot_utxos(self.DEPTH, self.N)

        def run():
            mimc.clear_cache()
            mst = MerkleStateTree(self.DEPTH)
            for u in utxos:
                mst.add(u)
            return mst

        before = mimc_counters()
        mst = benchmark.pedantic(run, iterations=1, rounds=3)
        assert mst.occupied_count == self.N
        benchmark.extra_info["mimc"] = mimc_delta(before)

    def test_bench_batched_apply(self, benchmark):
        utxos = _distinct_slot_utxos(self.DEPTH, self.N)

        def run():
            mimc.clear_cache()
            mst = MerkleStateTree(self.DEPTH)
            mst.apply_batch(add=utxos)
            return mst

        before = mimc_counters()
        mst = benchmark.pedantic(run, iterations=1, rounds=3)
        assert mst.occupied_count == self.N
        benchmark.extra_info["mimc"] = mimc_delta(before)

    def test_batched_root_matches_sequential(self):
        utxos = _distinct_slot_utxos(self.DEPTH, 64)
        sequential, batched = MerkleStateTree(self.DEPTH), MerkleStateTree(self.DEPTH)
        for u in utxos:
            sequential.add(u)
        batched.apply_batch(add=utxos)
        assert batched.root == sequential.root


def _paged_store(kind: str):
    from repro.storage.pages import DictNodeStore, FilePageBacking, PagedNodeStore

    if kind == "dict":
        return DictNodeStore()
    # the pages spill to an unnamed file in the system temporary directory
    return PagedNodeStore(FilePageBacking(tempfile.gettempdir()), page_size=64, cache_pages=16)


class TestPagedStoreAxis:
    """PR 9: the same bulk workload across node-store backends.

    The paged store must track the dict store's root exactly; the wall
    difference is the price of page encode/decode at this cache size.
    """

    DEPTH = 12
    N = 1024

    @pytest.mark.parametrize("store", ["dict", "paged"])
    def test_bench_bulk_insert_per_store(self, benchmark, store):
        utxos = _distinct_slot_utxos(self.DEPTH, self.N)

        def run():
            mimc.clear_cache()
            mst = MerkleStateTree(self.DEPTH, node_store=_paged_store(store))
            mst.apply_batch(add=utxos)
            return mst

        mst = benchmark.pedantic(run, iterations=1, rounds=3)
        assert mst.occupied_count == self.N
        benchmark.extra_info["store"] = store

    def test_paged_root_matches_dict(self):
        utxos = _distinct_slot_utxos(self.DEPTH, 256)
        reference = MerkleStateTree(self.DEPTH)
        reference.apply_batch(add=utxos)
        paged = MerkleStateTree(self.DEPTH, node_store=_paged_store("paged"))
        paged.apply_batch(add=utxos)
        assert paged.root == reference.root


class TestCopyCostRegression:
    """PR 9 satellite: ``MerkleStateTree.copy()`` must now actually be cheap.

    With CoW page sharing a copy is flush + an O(top-layer) table seal, so
    its cost must stay flat as occupancy grows 8x — and beat the dict
    store's full-dict duplication at the higher occupancy outright.
    """

    DEPTH = 16
    SMALL = 1024
    LARGE = 8192

    @staticmethod
    def _steady_copy_cost(mst, repeats: int = 200) -> float:
        import time

        mst.copy()  # first copy pays the one-time dirty-page flush
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            mst.copy()
            best = min(best, time.perf_counter() - start)
        return best

    def _populated(self, count: int, store_kind: str) -> MerkleStateTree:
        utxos = _distinct_slot_utxos(self.DEPTH, count)
        mst = MerkleStateTree(self.DEPTH, node_store=_paged_store(store_kind))
        mst.apply_batch(add=utxos)
        # snapshots happen at epoch boundaries, where the touched-delta
        # window restarts; copy cost is O(cache + delta), not O(occupied)
        mst.reset_touched()
        return mst

    def test_paged_copy_cost_stays_flat_as_occupancy_grows(self):
        small = self._steady_copy_cost(self._populated(self.SMALL, "paged"))
        large = self._steady_copy_cost(self._populated(self.LARGE, "paged"))
        # 8x the occupancy must not cost anywhere near 8x per copy; the
        # generous 3x bound absorbs timer noise on sub-100us measurements
        assert large <= small * 3, (
            f"paged copy cost scaled with occupancy: {small * 1e6:.1f}us at "
            f"{self.SMALL} leaves vs {large * 1e6:.1f}us at {self.LARGE}"
        )

    def test_paged_copy_beats_dict_copy_at_scale(self):
        paged = self._steady_copy_cost(self._populated(self.LARGE, "paged"))
        dictc = self._steady_copy_cost(self._populated(self.LARGE, "dict"))
        assert paged < dictc, (
            f"paged copy ({paged * 1e6:.1f}us) should undercut the dict "
            f"store's full duplication ({dictc * 1e6:.1f}us) at "
            f"{self.LARGE} occupied leaves"
        )
