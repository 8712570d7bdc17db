"""Experiment Q6 — §5.1: mainchain fork resolution propagates to the SC.

Regenerates the binding property: when the MC reorgs, sidechain blocks
referencing orphaned MC blocks are reverted and the SC deterministically
rebuilds onto the new branch.  Measures recovery cost versus reorg depth.
"""

import statistics
import time

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError
from repro.latus.node import LatusNode
from repro.latus.state import LatusState
from repro.scenarios import ZendooHarness
from tests.test_certificate_check import count_calls, resign, validator_of
from tests.test_mainchain_chain import make_block


def scenario(seed: str):
    harness = ZendooHarness(miner_seed=f"{seed}/miner")
    harness.mine(2)
    sc = harness.create_sidechain(seed, epoch_len=6, submit_len=2)
    alice = KeyPair.from_seed(f"{seed}/alice")
    harness.forward_transfer(sc, alice, 7777)
    harness.mine(4)
    return harness, sc, alice


def force_reorg(harness, depth: int, ts_base: int = 5000):
    """Replace the last ``depth`` MC blocks with a heavier foreign fork."""
    mc = harness.mc
    fork_point = mc.chain.block_at_height(mc.height - depth)
    parent = fork_point
    for i in range(depth + 2):
        block = make_block(parent, params=mc.params, ts=ts_base + i)
        mc.chain.add_block(block)
        parent = block
    return parent


class TestQ6ReorgPropagation:
    def test_regenerates_fork_resolution(self, benchmark):
        def run():
            harness, sc, alice = scenario("q6a")
            funded_before = harness.wallet(sc, alice).balance()
            sc_height_before = sc.node.height
            force_reorg(harness, depth=4)
            sc.node.sync()
            return (
                funded_before,
                harness.wallet(sc, alice).balance(),
                sc_height_before,
                sc.node.height,
                sc.node.synced_mc_height == harness.mc.height,
            )

        before, after, h_before, h_after, caught_up = benchmark.pedantic(
            run, iterations=1, rounds=1
        )
        assert before == 7777
        assert after == 0  # the FT lived on the orphaned branch
        assert caught_up
        print(
            f"\nQ6: reorg depth 4 -> SC rebuilt (height {h_before} -> {h_after}), "
            f"orphaned FT reverted"
        )

    def test_ft_on_common_prefix_survives(self, benchmark):
        def run():
            harness, sc, alice = scenario("q6b")
            harness.mine(2)  # bury the FT deeper than the coming reorg
            force_reorg(harness, depth=2, ts_base=6000)
            sc.node.sync()
            return harness.wallet(sc, alice).balance()

        balance = benchmark.pedantic(run, iterations=1, rounds=1)
        assert balance == 7777
        print("\nQ6: FT below the fork point survives the reorg")

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_bench_recovery_vs_reorg_depth(self, benchmark, depth):
        harness, sc, alice = scenario(f"q6c-{depth}")
        harness.mine(4)
        force_reorg(harness, depth=depth, ts_base=7000 + depth)

        def recover():
            sc.node.sync()

        benchmark.pedantic(recover, iterations=1, rounds=1)
        assert sc.node.synced_mc_height == harness.mc.height
        benchmark.extra_info["reorg_depth"] = depth


def loaded_chain(shape: str, **node_kwargs):
    """A chain shaped to make the rollback re-derive as much as it can.

    ``open_epoch``: 32 funded accounts, 8-block withdrawal epochs, about 29
    payments in each of the open epoch's first seven MC blocks (~200
    transitions, above the ~140 of the ``epoch_large`` pipeline shape).
    ``history``: 30 certified epochs and a light open epoch.
    """
    harness = ZendooHarness(miner_seed=f"q6d-{shape}/miner")
    harness.mine(2)
    loaded = shape == "open_epoch"
    sc = harness.create_sidechain(
        f"q6d-{shape}", epoch_len=8 if loaded else 4, submit_len=2, **node_kwargs
    )
    keys = [KeyPair.from_seed(f"q6d-{shape}/{i}") for i in range(32 if loaded else 4)]
    for key in keys:
        harness.forward_transfer(sc, key, 1_000_000)
    wallets = [harness.wallet(sc, key) for key in keys]
    while len(sc.node.certificates) < (3 if loaded else 30):
        harness.mine(1)
    harness.mine_until(sc.config.schedule.first_height(sc.node.epoch_id) - 1)
    funded = [(i, w) for i, w in enumerate(wallets) if w.balance()]
    for _ in range(7 if loaded else 3):
        for i, wallet in funded:
            wallet.pay(keys[(i + 1) % len(keys)].address, 10 + i)
        harness.mine(1)
    return harness, sc


class TestQ6RollbackCost:
    @pytest.mark.parametrize("shape, restarted", [
        ("open_epoch", False), ("history", False), ("history", True),
    ])
    def test_bench_rollback_keeping_all_but_the_tip(
        self, benchmark, tmp_path, shape, restarted
    ):
        """A depth-1 reorg that reverts only the tip block: the rollback
        re-derives every other block (certified epochs by bookkeeping, the
        open epoch by re-execution); the resync is timed apart.  The
        restarted case is a node with a data directory (so its MST pages),
        restarted before the reorg."""
        node_kwargs = dict(data_dir=tmp_path / "sc") if restarted else {}
        harness, sc = loaded_chain(shape, **node_kwargs)
        node = sc.node
        if restarted:
            node.crash()
            node.restart()
        divergence = node.blocks[-1].mc_refs[0].mc_height
        force_reorg(harness, depth=harness.mc.height - divergence + 1)
        blocks = len(node.blocks)
        timings = []

        def rollback():
            start = time.perf_counter()
            node._rollback_before(divergence)
            timings.append(time.perf_counter() - start)

        benchmark.pedantic(rollback, iterations=1, rounds=1)
        assert len(node.blocks) == blocks - 1
        kept_transitions = sum(len(b.ordered_transitions()) for b in node.epoch_blocks)
        start = time.perf_counter()
        node.sync()
        resync = time.perf_counter() - start
        assert node.synced_mc_height == harness.mc.height
        print(
            f"\nQ6 rollback ({shape}{', restarted paged' if restarted else ''}): "
            f"{blocks - 1} blocks kept, {len(node.certificates)} certified epochs, "
            f"{kept_transitions} open-epoch transitions kept; rollback "
            f"{timings[0] * 1e3:.1f} ms, resync {resync * 1e3:.1f} ms"
        )
        node.close()


class TestQ6RefusalCost:
    @pytest.mark.parametrize("shape", ["open_epoch", "history"])
    def test_bench_refused_against_honest_tip(self, benchmark, monkeypatch, shape):
        """A tip signed by its slot leader but carrying a wrong state digest,
        refused by a validator bootstrapped to the tip's parent: counted
        (``LatusState.apply`` / ``copy`` calls) and timed warm against the
        honest tip, each on a validator at the same height."""
        harness, sc = loaded_chain(shape)
        *body, tip = sc.node.blocks
        wrong = resign(sc, tip, state_digest=tip.state_digest + 1)
        calls = count_calls(monkeypatch, LatusState, "apply", "copy")

        def fresh() -> LatusNode:
            node = validator_of(harness, sc)
            node.bootstrap_from(body)
            return node

        def timed(node, block) -> float:
            start = time.perf_counter()
            try:
                node.receive_block(block)
            except ConsensusError:
                pass
            return time.perf_counter() - start

        validator = fresh()
        calls.update(apply=0, copy=0)
        with pytest.raises(ConsensusError):
            validator.receive_block(wrong)
        refused_calls = dict(calls)
        assert refused_calls == {"apply": len(tip.ordered_transitions()), "copy": 0}

        def alternate():
            """Warm pairs, refused then honest; the first pair warms the memos."""
            pairs = []
            for _ in range(16):
                node = fresh()
                pairs.append((timed(validator, wrong), timed(node, tip)))
                assert node.tip_hash == tip.hash
                node.close()
            return pairs[1:]

        refused, honest = zip(*benchmark.pedantic(alternate, iterations=1, rounds=1))
        assert validator.tip_hash == body[-1].hash
        validator.close()
        ratio = statistics.median(refused) / statistics.median(honest)
        benchmark.extra_info.update(refused_calls=refused_calls, ratio=ratio)
        print(
            f"\nQ6 refusal ({shape}): tip of {len(tip.ordered_transitions())} "
            f"transitions; refused {refused_calls['apply']} applies, "
            f"{refused_calls['copy']} copies; warm median refused "
            f"{statistics.median(refused) * 1e3:.2f} ms, honest "
            f"{statistics.median(honest) * 1e3:.2f} ms, ratio {ratio:.2f}"
        )
        sc.node.close()
