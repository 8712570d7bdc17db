"""Experiment F2 — Fig. 2: the Merkle hash tree and its membership proofs.

Regenerates the figure's 8-leaf tree and the (h43, h31, h22) proof for
data4, then measures construction and proof costs as the leaf count grows
(root computation O(n), proof size/verification O(log n)).
"""

import pytest

from repro.crypto import mimc
from repro.crypto.fixed_merkle import FixedMerkleTree
from repro.crypto.merkle import MerkleTree, leaf_hash
from benchmarks.conftest import mimc_counters, mimc_delta


def leaves(n: int):
    return [leaf_hash(f"data{i + 1}".encode()) for i in range(n)]


class TestFig2Merkle:
    def test_regenerates_fig2(self, benchmark):
        tree = benchmark.pedantic(lambda: MerkleTree(leaves(8)), iterations=1, rounds=3)
        proof = tree.prove(3)  # data4
        assert len(proof.siblings) == 3  # h43, h31, h22
        assert proof.verify(tree.root)
        benchmark.extra_info["proof_siblings"] = len(proof.siblings)
        print(
            f"\nFig. 2: 8-leaf MHT root={tree.root.hex()[:16]}… "
            f"proof(data4) = 3 siblings, verifies: True"
        )

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_bench_tree_construction(self, benchmark, n):
        data = leaves(n)
        tree = benchmark(MerkleTree, data)
        benchmark.extra_info["leaves"] = n
        assert len(tree) == n

    @pytest.mark.parametrize("n", [8, 64, 512, 4096])
    def test_bench_proof_verification(self, benchmark, n):
        tree = MerkleTree(leaves(n))
        proof = tree.prove(n // 2)
        assert benchmark(proof.verify, tree.root)
        # proof size grows logarithmically — the succinctness the
        # SCTxsCommitment design (§4.1.3) relies on
        benchmark.extra_info["leaves"] = n
        benchmark.extra_info["proof_siblings"] = len(proof.siblings)

    def test_proof_size_logarithmic_shape(self, benchmark):
        sizes = {}

        def measure():
            for n in (8, 64, 512, 4096):
                tree = MerkleTree(leaves(n))
                sizes[n] = len(tree.prove(0).siblings)
            return sizes

        benchmark.pedantic(measure, iterations=1, rounds=1)
        assert sizes == {8: 3, 64: 6, 512: 9, 4096: 12}
        benchmark.extra_info["proof_sizes"] = sizes
        print(f"\nF2 proof-size shape (leaves -> siblings): {sizes}")


class TestFieldTreeBulkInsert:
    """Bulk-insert workload on the MiMC field tree (the MST substrate).

    Compares k sequential ``set_leaf`` path rehashes against one batched
    ``set_leaves`` distinct-ancestor rehash; the mimc stats counters in
    ``extra_info`` attribute the speedup to fewer compressions.
    """

    N = 256
    DEPTH = 20

    def _updates(self):
        return [(i, i + 1) for i in range(self.N)]

    def test_bench_sequential_set_leaf(self, benchmark):
        updates = self._updates()

        def run():
            mimc.clear_cache()
            tree = FixedMerkleTree(self.DEPTH)
            for position, value in updates:
                tree.set_leaf(position, value)
            return tree

        before = mimc_counters()
        tree = benchmark.pedantic(run, iterations=1, rounds=3)
        assert tree.occupied_count == self.N
        benchmark.extra_info["mimc"] = mimc_delta(before)

    def test_bench_batched_set_leaves(self, benchmark):
        updates = self._updates()

        def run():
            mimc.clear_cache()
            tree = FixedMerkleTree(self.DEPTH)
            tree.set_leaves(updates)
            return tree

        before = mimc_counters()
        tree = benchmark.pedantic(run, iterations=1, rounds=3)
        assert tree.occupied_count == self.N
        benchmark.extra_info["mimc"] = mimc_delta(before)

    def test_batched_root_matches_sequential(self):
        sequential = FixedMerkleTree(self.DEPTH)
        for position, value in self._updates():
            sequential.set_leaf(position, value)
        batched = FixedMerkleTree(self.DEPTH)
        batched.set_leaves(self._updates())
        assert batched.root == sequential.root
