"""Scale and parity tests for the SCTxsCommitment tree.

Satellite coverage for the many-sidechains scale-out: presence/absence
proofs on a large, non-power-of-two tree (N=1000 leaves, including absence
between adjacent leaves and at both edges), and byte-identical parity of
``build_commitment`` against the Fig. 12 formulas written out by hand —
including across register/cease/reorg at the chain level.
"""

import pytest

from repro.core import commitment as commitment_mod
from repro.core.commitment import build_commitment
from repro.core.transfers import ForwardTransfer, derive_ledger_id
from repro.crypto.hashing import NULL_DIGEST, hash_concat
from repro.crypto.merkle import MerkleTree
from repro.crypto.keys import KeyPair
from repro.mainchain.validation import compute_sc_txs_commitment
from repro.scenarios import ZendooHarness
from tests.test_mainchain_chain import make_block

N = 1000  # deliberately not a power of two

ALICE = KeyPair.from_seed("alice")


def _ft(ledger_id: bytes, amount: int = 10) -> ForwardTransfer:
    return ForwardTransfer(
        ledger_id=ledger_id, receiver_metadata=b"\x07" * 32, amount=amount
    )


@pytest.fixture(scope="module")
def big_tree():
    fts = [_ft(derive_ledger_id(f"scale-{i}")) for i in range(N)]
    return build_commitment(fts, [], [])


class TestLargeTreeProofs:
    def test_tree_shape(self, big_tree):
        assert big_tree.leaf_count == N

    def test_presence_proofs_across_the_tree(self, big_tree):
        root = big_tree.root
        ids = [c.ledger_id for c in big_tree.commitments]
        for ledger_id in (ids[0], ids[1], ids[N // 2], ids[-2], ids[-1]):
            proof = big_tree.prove_presence(ledger_id)
            assert proof.verify(root)

    def test_presence_proof_rejects_other_root(self, big_tree):
        proof = big_tree.prove_presence(big_tree.commitments[7].ledger_id)
        assert not proof.verify(b"\x55" * 32)

    def test_absence_between_adjacent_leaves(self, big_tree):
        root = big_tree.root
        ids = [c.ledger_id for c in big_tree.commitments]
        checked = 0
        for i in (0, 17, N // 2, N - 2):
            left, right = ids[i], ids[i + 1]
            # the id one greater than `left`: strictly between the adjacent
            # leaves (32-byte digests are never consecutive integers)
            between = (int.from_bytes(left, "big") + 1).to_bytes(32, "big")
            assert left < between < right
            proof = big_tree.prove_absence(between)
            assert proof.verify(root)
            assert proof.left is not None and proof.right is not None
            assert (
                proof.right.merkle_proof.index
                == proof.left.merkle_proof.index + 1
            )
            checked += 1
        assert checked == 4

    def test_absence_at_both_edges(self, big_tree):
        root = big_tree.root
        ids = [c.ledger_id for c in big_tree.commitments]
        below = b"\x00" * 32
        above = b"\xff" * 32
        assert below < ids[0] and ids[-1] < above

        low = big_tree.prove_absence(below)
        assert low.verify(root)
        assert low.left is None and low.right.merkle_proof.index == 0

        high = big_tree.prove_absence(above)
        assert high.verify(root)
        assert high.right is None
        assert high.left.merkle_proof.index == N - 1

    def test_absence_proof_does_not_transfer(self, big_tree):
        """An absence proof for one id must not verify for another."""
        root = big_tree.root
        proof = big_tree.prove_absence(b"\x00" * 32)
        transplanted = commitment_mod.AbsenceProof(
            ledger_id=big_tree.commitments[5].ledger_id,
            left=proof.left,
            right=proof.right,
            leaf_count=proof.leaf_count,
        )
        assert not transplanted.verify(root)


def _naive_root(fts: list[ForwardTransfer]) -> bytes:
    """Fig. 12 for a block of one FT per sidechain and nothing else."""
    empty = MerkleTree([]).root
    leaves = [
        hash_concat(
            [
                hash_concat([MerkleTree([ft.id]).root, empty], b"zendoo/sc-txs"),
                NULL_DIGEST,
                ft.ledger_id,
            ],
            b"zendoo/sc-leaf",
        )
        for ft in sorted(fts, key=lambda ft: ft.ledger_id)
    ]
    return hash_concat(
        [MerkleTree(leaves).root, len(leaves).to_bytes(4, "little")],
        b"zendoo/sc-commit",
    )


class TestIncrementalParity:
    def test_roots_identical_cold_warm_and_disabled(self):
        """A rebuild over the same block content equals the naive root."""
        fts = [_ft(derive_ledger_id(f"parity-{i}")) for i in range(257)]
        first = build_commitment(fts, [], []).root
        rebuilt = build_commitment(fts, [], []).root
        assert first == rebuilt == _naive_root(fts)

    def test_touched_sidechain_changes_root_and_stays_in_parity(self):
        fts = [_ft(derive_ledger_id(f"touch-{i}")) for i in range(64)]
        base = build_commitment(fts, [], []).root
        fts[3] = _ft(fts[3].ledger_id, amount=999)
        changed = build_commitment(fts, [], []).root
        assert changed != base
        assert changed == _naive_root(fts)

    def test_proofs_from_cached_build_verify(self):
        fts = [_ft(derive_ledger_id(f"proof-{i}")) for i in range(33)]
        tree = build_commitment(fts, [], [])
        root = tree.root
        assert tree.prove_presence(fts[5].ledger_id).verify(root)
        absent = (
            int.from_bytes(tree.commitments[0].ledger_id, "big") + 1
        ).to_bytes(32, "big")
        assert tree.prove_absence(absent).verify(root)


class TestChainLevelParity:
    """Header commitments must equal a rebuild from the block's
    transactions across the full block lifecycle: register, certify, cease,
    reorg."""

    def _assert_headers_match_naive_rebuild(self, mc):
        for block in mc.chain.active_chain():
            naive = compute_sc_txs_commitment(block.transactions)
            assert naive == block.header.sc_txs_commitment

    def test_parity_across_register_certify_cease_and_reorg(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("parity-a", epoch_len=4, submit_len=2)
        other = harness.create_sidechain("parity-b", epoch_len=4, submit_len=2)
        harness.forward_transfer(sc, ALICE, 50_000)
        harness.forward_transfer(other, ALICE, 10_000)
        other.node.auto_submit_certificates = False  # let `other` cease
        harness.run_epochs(sc, 2)  # certificates flow for `sc`

        mc = harness.mc
        ceased = mc.state.cctp.status(other.ledger_id)
        from repro.core.cctp import SidechainStatus

        assert ceased is SidechainStatus.CEASED
        self._assert_headers_match_naive_rebuild(mc)

        # force a reorg: an empty fork overtakes the active chain
        old_tip = mc.chain.tip.hash
        parent = mc.chain.block_at_height(mc.height - 2)
        for i in range(5):
            block = make_block(parent, params=mc.params, ts=90_000 + i)
            mc.chain.add_block(block)
            parent = block
        assert mc.chain.tip.hash != old_tip
        self._assert_headers_match_naive_rebuild(mc)
