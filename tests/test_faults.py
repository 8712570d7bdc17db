"""Deterministic fault injection, crash recovery, and chaos convergence.

Covers the whole robustness stack: seeded :class:`FaultPlan` decisions
(byte-identical across runs), scheduled partitions, simulator integration
(labeled drop accounting, duplicate/reorder/spike delivery, handler
failures), :class:`LatusNode` crash/restart/``sync_from`` recovery,
seeded prover laziness and the proof market's retry-then-fallback policy,
chaos runs of the harness deployment (a fault plan on ``harness.network``,
then ``harness.converge``), and the three paper-critical stories:

1. a certificate misses its submission window under partition — the
   sidechain ceases, and a CSW against the last committed root still pays
   the user out (Def. 4.2 / 4.6);
2. a node crashes mid-epoch and resyncs to the exact same tip and state
   digest (determinism, §5.3);
3. the Appendix A withheld-``mst_delta`` attack is rejected by the WCert
   circuit and by the mainchain, while the published deltas let the user
   detect the spend.
"""

from __future__ import annotations

import pytest
from dataclasses import replace
from types import SimpleNamespace

from repro import observability
from repro.core.cctp import SidechainStatus
from repro.crypto.field import MODULUS
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.errors import (
    CertificateRejected,
    ConsensusError,
    MarketError,
    NetworkError,
    NodeCrashed,
    UnsatisfiedConstraint,
)
from repro.latus.block import forge_block
from repro.latus.market import (
    LazyBehaviour,
    MarketDispatcher,
    MarketProver,
    MarketTask,
    tree_tasks,
)
from repro.latus.mst_delta import MstDelta
from repro.latus.params import LatusParams
from repro.mainchain.params import MainchainParams
from repro.network import (
    CLEAN,
    FaultPlan,
    LatencyModel,
    NetworkSimulator,
    NEVER,
    partition,
)
from repro.observability import export
from repro.scenarios import ZendooHarness
from repro.scenarios.adversarial import payment_epoch
from repro.storage import FileStore
from repro.snark import proving


# ---------------------------------------------------------------------------
# FaultPlan determinism
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(NetworkError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(NetworkError):
            FaultPlan(duplicate_rate=-0.1)

    def test_clean_plan_is_clean(self):
        plan = FaultPlan()
        for n in range(20):
            assert plan.decide("a", "b", float(n)) is CLEAN

    def test_same_seed_same_decisions(self):
        def schedule(plan):
            return b";".join(
                plan.decide(src, dst, float(i)).encode()
                for i in range(50)
                for src, dst in (("a", "b"), ("b", "a"), ("a", "c"))
            )

        make = lambda: FaultPlan(  # noqa: E731
            seed=b"pin", drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2,
            spike_rate=0.2,
        )
        assert schedule(make()) == schedule(make())

    def test_different_seed_different_decisions(self):
        a = FaultPlan(seed=b"one", drop_rate=0.5)
        b = FaultPlan(seed=b"two", drop_rate=0.5)
        decisions_a = [a.decide("x", "y", 0.0).deliver for _ in range(64)]
        decisions_b = [b.decide("x", "y", 0.0).deliver for _ in range(64)]
        assert decisions_a != decisions_b

    def test_per_link_override_targets_one_link(self):
        plan = FaultPlan(seed=b"link", link_drop={("a", "b"): 1.0})
        assert not plan.decide("a", "b", 0.0).deliver
        assert plan.decide("b", "a", 0.0).deliver
        assert plan.decide("a", "c", 0.0).deliver

    def test_drop_rate_roughly_respected(self):
        plan = FaultPlan(seed=b"rate", drop_rate=0.25)
        drops = sum(
            0 if plan.decide("a", "b", 0.0).deliver else 1 for _ in range(400)
        )
        assert 50 <= drops <= 150  # 0.25 +- generous tolerance, deterministic


class TestPartition:
    def test_severs_only_across_groups_during_window(self):
        p = partition([("a", "b"), ("c",)], from_t=1.0, until_t=5.0)
        assert p.severs("a", "c", 2.0)
        assert p.severs("c", "b", 4.999)
        assert not p.severs("a", "b", 2.0)  # same group
        assert not p.severs("a", "c", 0.5)  # before
        assert not p.severs("a", "c", 5.0)  # healed (half-open interval)

    def test_unlisted_nodes_unaffected(self):
        p = partition([("a",), ("b",)], from_t=0.0, until_t=10.0)
        assert not p.severs("a", "outsider", 5.0)
        assert not p.severs("outsider", "b", 5.0)

    def test_backwards_window_rejected(self):
        with pytest.raises(NetworkError):
            partition([("a",), ("b",)], from_t=5.0, until_t=1.0)

    def test_plan_healed_at(self):
        plan = FaultPlan(
            partitions=(
                partition([("a",), ("b",)], 0.0, 4.0),
                partition([("a",), ("c",)], 2.0, 9.0),
            )
        )
        assert plan.healed_at == 9.0
        assert FaultPlan().healed_at == 0.0


# ---------------------------------------------------------------------------
# Simulator integration
# ---------------------------------------------------------------------------


def _sim(plan=None, **kwargs):
    sim = NetworkSimulator(
        latency=LatencyModel(seed=b"faults-test"), faults=plan, **kwargs
    )
    inboxes = {name: [] for name in ("a", "b", "c")}
    for name in inboxes:
        sim.register(name, lambda src, msg, _n=name: inboxes[_n].append((src, msg)))
    return sim, inboxes


class TestSimulatorFaults:
    def test_drop_returns_never_and_counts(self):
        registry = observability.registry()
        dropped = registry.get("repro_network_dropped_total")
        faults = registry.get("repro_network_faults_total")
        before_drop = dropped.value(reason="fault")
        before_kind = faults.value(kind="drop")
        sim, inboxes = _sim(FaultPlan(seed=b"d", drop_rate=1.0))
        assert sim.send("a", "b", "x") == NEVER
        sim.run()
        assert inboxes["b"] == []
        assert dropped.value(reason="fault") == before_drop + 1
        assert faults.value(kind="drop") == before_kind + 1

    def test_duplicate_delivers_twice(self):
        sim, inboxes = _sim(FaultPlan(seed=b"dup", duplicate_rate=1.0))
        sim.send("a", "b", "once")
        sim.run()
        assert inboxes["b"] == [("a", "once"), ("a", "once")]

    def test_delay_spike_postpones_delivery(self):
        plan = FaultPlan(seed=b"spike", spike_rate=1.0, spike_delay=7.0)
        sim, _ = _sim(plan)
        at = sim.send("a", "b", "late")
        assert at >= 7.0

    def test_reorder_scrambles_arrival_order(self):
        plan = FaultPlan(seed=b"reorder", reorder_rate=1.0, reorder_jitter=5.0)
        sim, inboxes = _sim(plan)
        for i in range(10):
            sim.send("a", "b", i)
        sim.run()
        arrived = [msg for _, msg in inboxes["b"]]
        assert sorted(arrived) == list(range(10))
        assert arrived != list(range(10))

    def test_partition_severs_then_heals(self):
        plan = FaultPlan(
            seed=b"part",
            partitions=(partition([("a",), ("b",)], 0.0, 10.0),),
        )
        sim, inboxes = _sim(plan)
        assert sim.send("a", "b", "lost") == NEVER
        sim.advance(11.0)  # clock moves even though the queue is empty
        assert sim.clock >= 10.0
        assert sim.send("a", "b", "found") != NEVER
        sim.run()
        assert inboxes["b"] == [("a", "found")]

    def test_fault_schedule_reproducible(self):
        def run():
            plan = FaultPlan(
                seed=b"sched", drop_rate=0.3, duplicate_rate=0.3,
                reorder_rate=0.3, spike_rate=0.3,
            )
            sim, _ = _sim(plan)
            for i in range(30):
                sim.send("a", "b", i)
                sim.send("b", "c", i)
            sim.run()
            return sim.fault_schedule()

        first, second = run(), run()
        assert first == second
        assert first  # something actually fired

    def test_fault_schedule_differs_across_seeds(self):
        def run(seed):
            sim, _ = _sim(FaultPlan(seed=seed, drop_rate=0.5))
            for i in range(30):
                sim.send("a", "b", i)
            sim.run()
            return sim.fault_schedule()

        assert run(b"seed-one") != run(b"seed-two")

    def test_unregistered_destination_after_scheduling(self):
        registry = observability.registry()
        dropped = registry.get("repro_network_dropped_total")
        before = dropped.value(reason="unknown_dst")
        sim, inboxes = _sim()
        sim.send("a", "b", "to-a-ghost")
        sim.unregister("b")
        sim.run()  # delivery finds no handler; counted, not raised
        assert inboxes["b"] == []
        assert dropped.value(reason="unknown_dst") == before + 1


class TestLatencyModelDeterminism:
    def test_samples_independent_of_register_order(self):
        def delivery_times(order):
            sim = NetworkSimulator(latency=LatencyModel(seed=b"order"))
            for name in order:
                sim.register(name, lambda src, msg: None)
            return [sim.send("a", "b", i) for i in range(10)] + [
                sim.send("b", "c", i) for i in range(10)
            ]

        assert delivery_times(["a", "b", "c"]) == delivery_times(["c", "b", "a"])

    def test_per_link_counters_are_independent(self):
        model = LatencyModel(seed=b"links")
        ab = [model.sample("a", "b") for _ in range(5)]
        fresh = LatencyModel(seed=b"links")
        fresh.sample("b", "a")  # traffic on another link
        assert [fresh.sample("a", "b") for _ in range(5)] == ab


class TestHandlerFailure:
    def test_raising_handler_propagates(self):
        """The simulator absorbs nothing: a handler decides which failures
        it drops, and any other one surfaces from the loop."""
        sim = NetworkSimulator(latency=LatencyModel(seed=b"iso2"))
        sim.register("a", lambda src, msg: None)

        def bad(src, msg):
            raise RuntimeError("boom")

        sim.register("bad", bad)
        sim.send("a", "bad", "x")
        with pytest.raises(RuntimeError):
            sim.run()


# ---------------------------------------------------------------------------
# Node crash / restart / recovery
# ---------------------------------------------------------------------------

CREATOR = KeyPair.from_seed("faults/creator")
STAKERS = [KeyPair.from_seed(f"faults/staker-{i}") for i in range(2)]


def make_deployment(seed="faults-dep", stores=None):
    """A creator's node plus one node per staker (``node-0``, ``node-1``),
    each with the store ``stores`` names for it."""
    harness = ZendooHarness(
        MainchainParams(pow_zero_bits=2, coinbase_maturity=1), miner_seed="faults/miner"
    )
    harness.mine(2)
    sc = harness.create_sidechain(
        seed,
        epoch_len=4,
        submit_len=2,
        latus_params=LatusParams(mst_depth=10, slots_per_epoch=6),
        creator=CREATOR,
        proving_strategy="batched",
    )
    for i, staker in enumerate(STAKERS):
        name = f"node-{i}"
        store = (stores or {}).get(name)
        harness.add_node(sc, name, forger_keys=[staker], proving_strategy="batched", store=store)
    return harness, sc


def drive(harness, sc, rounds, crash_at=None, restart_at=None) -> int:
    """Mine ``rounds`` MC blocks, crashing ``crash_at[r]`` and restarting
    ``restart_at[r]`` before round ``r``; returns ``converge``'s resyncs."""
    for rnd in range(rounds):
        for name in (crash_at or {}).get(rnd, ()):
            sc.nodes[name].crash()
        for name in (restart_at or {}).get(rnd, ()):
            sc.nodes[name].restart()
        harness.mine(1)
    return harness.converge(sc)


def snapshot() -> dict[str, float]:
    return export.flatten(observability.registry())


def moved_since(before: dict) -> dict[str, float]:
    """Every metric series that moved since ``before``, by how much."""
    return {k: v - before.get(k, 0) for k, v in snapshot().items() if v != before.get(k, 0)}


def chaos_run(plan_for, rounds, crash_at, restart_at, seed="faults-dep", stores=None):
    """``drive`` a fresh deployment under ``plan_for(sc, now)``; what it did."""
    harness, sc = make_deployment(seed, stores)
    harness.network.faults = plan_for(sc, harness.network.clock)
    before = snapshot()
    resyncs = drive(harness, sc, rounds, crash_at, restart_at)
    moved = moved_since(before)
    outcome = SimpleNamespace(
        resyncs=resyncs,
        fetches=moved.get("repro_latus_block_fetches_total", 0),
        refused=sum(v for k, v in moved.items() if k.startswith("repro_latus_blocks_refused")),
        forged=moved.get("repro_latus_blocks_forged_total", 0),
        crashes=moved.get("repro_node_crashes_total", 0),
        disk_recoveries=moved.get("repro_storage_disk_recoveries_total", 0),
        restarts={name: node.restarts for name, node in sc.nodes.items()},
        kinds={kind for *_, decision in harness.network.fault_log for kind in decision.kinds},
        schedule=harness.network.fault_schedule(),
        final=(sc.node.height, sc.node.tip_hash, sc.node.state.digest()),
    )
    for node in sc.nodes.values():
        node.close()
    return outcome


@pytest.fixture
def deployment():
    harness, sc = make_deployment()
    yield harness, sc
    for node in sc.nodes.values():
        node.close()


class TestCrashRestart:
    def test_crashed_node_refuses_chain_apis(self, deployment):
        harness, sc = deployment
        harness.mine(3)
        node = sc.peers["node-0"]
        node.crash()
        node.crash()  # idempotent
        with pytest.raises(NodeCrashed):
            node.sync()
        with pytest.raises(NodeCrashed):
            node.receive_block(sc.node.blocks[-1])
        with pytest.raises(NodeCrashed):
            node.sync_from(sc.node)
        assert node.crashed

    def test_restart_rebuilds_from_genesis(self, deployment):
        harness, sc = deployment
        harness.mine(3)
        node = sc.peers["node-0"]
        height_before = node.height
        assert height_before >= 0
        node.crash()
        node.restart()
        assert not node.crashed
        assert node.restarts == 1
        assert node.height == -1  # fresh chain, ready to resync

    def test_crash_mid_epoch_resync_reaches_same_digest(self, deployment):
        """Story 2: crash mid-epoch, restart, resync — byte-identical state."""
        harness, sc = deployment
        harness.mine(5)  # inside an epoch (epoch_len=4, started later)
        victim = sc.peers["node-1"]
        reference = sc.node
        victim.crash()
        victim.restart()
        adopted = victim.sync_from(reference)
        assert adopted == len(reference.blocks)
        assert victim.height == reference.height
        assert victim.tip_hash == reference.tip_hash
        assert victim.state.digest() == reference.state.digest()
        # the resynced node keeps participating normally
        harness.mine(2)
        assert harness.converge(sc) == 0

    def test_sync_from_bad_peer_retries_then_fails(self, deployment):
        harness, sc = deployment
        harness.mine(3)
        node = sc.peers["node-0"]
        good_height = node.height
        bogus = forge_block(
            parent_hash=b"\xaa" * 32,
            height=0,
            slot=0,
            forger=CREATOR,
            mc_refs=(),
            transactions=(),
            state_digest=3 % MODULUS,
        )
        fake_peer = SimpleNamespace(blocks=[bogus])
        node.crash()
        node.restart()
        with pytest.raises(ConsensusError, match="sync_from failed"):
            node.sync_from(fake_peer)
        # the failed sync leaves a clean slate; a good peer then works
        assert node.height == -1
        node.sync_from(sc.node)
        assert node.height == good_height


# ---------------------------------------------------------------------------
# Prover laziness and the market's retry-then-fallback policy
# ---------------------------------------------------------------------------


def task(ordinal: int) -> MarketTask:
    return MarketTask(kind="base", level=0, index=ordinal, span=1, txid=b"", ordinal=ordinal)


def refusals(behaviour: LazyBehaviour, count: int) -> list[bool]:
    return [behaviour.decide(task(i)) == "refuse" for i in range(count)]


class TestWorkerFaultInjector:
    """``LazyBehaviour``'s seeded draw: pure in ``(seed, task ordinal)``."""

    def test_rate_validated(self):
        with pytest.raises(MarketError):
            LazyBehaviour(2.0)
        with pytest.raises(MarketError):
            LazyBehaviour(-0.1)

    def test_deterministic_in_seed_and_index(self):
        a = refusals(LazyBehaviour(0.5, seed=b"inj"), 64)
        assert a == refusals(LazyBehaviour(0.5, seed=b"inj"), 64)
        assert any(a) and not all(a)
        assert a != refusals(LazyBehaviour(0.5, seed=b"other"), 64)
        # the draw market schedules and adversarial replays are pinned to
        draws = [
            hash_bytes(b"inj" + i.to_bytes(8, "little"), b"pool/fault") for i in range(64)
        ]
        assert a == [int.from_bytes(d[:8], "little") / float(1 << 64) < 0.5 for d in draws]

    def test_extreme_rates(self):
        assert not any(refusals(LazyBehaviour(0.0), 32))
        assert all(refusals(LazyBehaviour(1.0), 32))
        assert all(refusals(LazyBehaviour(), 32))


class TestPoolFaultRecovery:
    """A refused or lost task is retried on another prover, then proven by
    the forger in-process; the root proof is always the serial one."""

    @staticmethod
    def run(provers, count, seed, **market):
        start, txs = payment_epoch(count, seed)
        dispatcher = MarketDispatcher(provers, **market)
        report = dispatcher.prove_epoch(start, txs)
        serial, final, _ = dispatcher.composer.prove_sequence(start, txs)
        assert report.proof == serial
        assert report.final_state.digest() == final.digest()
        return report

    def test_all_dispatches_failing_degrades_to_serial(self):
        lazy = MarketProver(name="lazy", stake=100, behaviour=LazyBehaviour(seed=b"allfail"))
        report = self.run([lazy], 3, b"allfail")
        assert report.fallback_tasks == tuple(t.key for t in tree_tasks(3))
        assert report.statement.total_paid == 0

    def test_partial_failures_retried_with_identical_results(self):
        reassigned = observability.registry().get("repro_market_reassignments_total")
        before = reassigned.value()
        flaky = LazyBehaviour(0.4, seed=b"flaky")
        report = self.run(
            [
                MarketProver(name="flaky", stake=900, behaviour=flaky),
                MarketProver(name="honest", stake=100),
            ],
            4,
            b"flaky",
        )
        assert report.reassignments > 0
        assert reassigned.value() == before + report.reassignments
        assert report.fallback_tasks == ()

    def test_map_prove_failures_recovered(self):
        lazy = LazyBehaviour(0.5, seed=b"mapfail")
        report = self.run(
            [
                MarketProver(name="lazy", stake=900, behaviour=lazy),
                MarketProver(name="honest", stake=100),
            ],
            4,
            b"mapfail",
        )
        assert report.censorship_suspected  # refused base tasks, all recovered
        assert report.fallback_tasks == ()

    def test_worker_dying_mid_round_degrades(self):
        """Submissions lost in transit are retried like refusals."""
        report = self.run(
            [MarketProver(name=f"p{i}", stake=100) for i in range(3)],
            4,
            b"transport",
            fault_plan=FaultPlan(seed=b"transport", drop_rate=0.4),
        )
        assert "transport" in {reason for _, reason in report.rejections}


# ---------------------------------------------------------------------------
# Chaos deployment (acceptance)
# ---------------------------------------------------------------------------


def chaos_plan(sc, start: float) -> FaultPlan:
    """Sampled faults, and node-1 cut off from its peers for rounds 2 to 5."""
    return FaultPlan(
        seed=b"chaos-accept",
        drop_rate=0.05,
        duplicate_rate=0.05,
        reorder_rate=0.1,
        spike_rate=0.05,
        partitions=(
            partition(
                [(sc.name, "node-0"), ("node-1",)], from_t=start + 2.0, until_t=start + 6.0
            ),
        ),
    )


class TestChaosConvergence:
    def test_chaos_run_converges_and_reproduces(self):
        def run():
            return chaos_run(chaos_plan, 10, crash_at={3: ["node-1"]}, restart_at={6: ["node-1"]})

        first = run()
        assert first.crashes == 1
        assert first.restarts["node-1"] >= 1
        assert first.final[0] >= 0
        assert first.schedule  # faults actually fired
        assert "partition" in first.kinds

        second = run()
        # same seed -> byte-identical fault schedule and identical outcome
        assert (second.schedule, second.final) == (first.schedule, first.final)

    def test_clean_plan_chaos_equals_lockstep(self):
        """A clean plan fires no fault and ends where plain lockstep does."""
        chaos = chaos_run(lambda sc, now: FaultPlan(), 6, crash_at=None, restart_at=None)
        lockstep = chaos_run(lambda sc, now: None, 6, crash_at=None, restart_at=None)
        assert chaos.schedule == b"" and chaos.resyncs == 0
        assert chaos.forged > 0
        assert (chaos.final, chaos.forged) == (lockstep.final, lockstep.forged)

    def test_duplicated_blocks_are_not_refused(self):
        """Every message delivered twice: the copy of a block the node already
        holds is skipped, so the refusal counter stays for invalid blocks."""
        outcome = chaos_run(
            lambda sc, now: FaultPlan(seed=b"duplicates", duplicate_rate=1.0),
            6,
            crash_at=None,
            restart_at=None,
        )
        assert outcome.kinds == {"duplicate"} and outcome.forged > 0
        assert outcome.refused == 0

    def test_crash_without_partition_recovers(self):
        outcome = chaos_run(
            lambda sc, now: FaultPlan(seed=b"crash-only"),
            8,
            crash_at={2: ["node-0"]},
            restart_at={5: ["node-0"]},
        )
        assert outcome.crashes == 1
        assert outcome.restarts["node-0"] >= 1


class TestChaosSweep:
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(16))
    def test_chaos_sweep_converges_and_reproduces(self, seed, tmp_path):
        """Partitions and drops; node-0 (on a ``FileStore``) and node-1 (on
        none) crash and restart.  node-1 comes back empty and catches up from
        its peers: it fetches the blocks it missed, or ``converge`` resyncs it."""

        def plan_for(sc, now):
            start = now + seed % 3
            return FaultPlan(
                seed=b"chaos-sweep/%d" % seed,
                drop_rate=0.1,
                duplicate_rate=0.05,
                reorder_rate=0.1,
                spike_rate=0.05,
                partitions=(
                    partition([(sc.name, "node-0"), ("node-1",)], start + 1.0, start + 4.0),
                    partition([(sc.name,), ("node-0", "node-1")], start + 5.0, start + 7.0),
                ),
            )

        def run(data_dir):
            both = ["node-0", "node-1"]
            stores = {"node-0": FileStore(data_dir)}
            return chaos_run(plan_for, 10, {2: both}, {5: both}, stores=stores)

        first = run(tmp_path / "first")
        assert first.fetches + first.resyncs >= 1
        assert first.schedule
        again = run(tmp_path / "again")
        assert (again.schedule, again.final) == (first.schedule, first.final)


# ---------------------------------------------------------------------------
# Story 1: certificate misses its window under partition -> cease -> CSW
# ---------------------------------------------------------------------------


class TestCeasingUnderPartition:
    def test_partition_starves_certificates_then_csw_recovers(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("doomed-partition", epoch_len=4, submit_len=2)
        carol = KeyPair.from_seed("faults/carol")
        harness.forward_transfer(sc, carol, 80_000)
        harness.run_epochs(sc, 2)
        entry = harness.mc.state.cctp.entry(sc.ledger_id)
        assert entry.certificates  # healthy so far
        carol_coin = harness.wallet(sc, carol).utxos()[0]

        # sever the MC -> sidechain-observer link: block announcements stop,
        # the node never sees epoch boundaries, no certificate gets built
        sc_name = f"sc-{sc.ledger_id.hex()[:8]}"
        now = harness.network.clock
        harness.network.faults = FaultPlan(
            seed=b"cease",
            partitions=(partition([("mc",), (sc_name,)], now, now + 64.0),),
        )
        synced_before = sc.node.synced_mc_height
        certs_before = len(sc.node.certificates)
        deadline = sc.config.schedule.ceasing_height(sc.node.epoch_id)
        harness.mine_until(deadline)
        assert sc.node.synced_mc_height == synced_before  # starved
        assert len(sc.node.certificates) == certs_before
        assert harness.mc.state.cctp.status(sc.ledger_id) is SidechainStatus.CEASED

        # healing is too late: the ceased sidechain refuses certificates,
        # but the node survives catching up (late submission is swallowed)
        harness.network.faults = None
        harness.mine(1)
        assert sc.node.synced_mc_height == harness.mc.height
        assert harness.mc.state.cctp.status(sc.ledger_id) is SidechainStatus.CEASED

        # the user still exits: CSW against the last committed MST root
        csw = harness.make_csw(sc, carol_coin, carol, carol.address)
        harness.submit_csw(csw)
        harness.mine(1)
        assert harness.mc.state.utxos.balance_of(carol.address) == carol_coin.amount


# ---------------------------------------------------------------------------
# Story 3: Appendix A withheld-mst_delta attack
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def delta_scenario():
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("delta-attack", epoch_len=4, submit_len=2)
    alice = KeyPair.from_seed("faults/alice")
    harness.forward_transfer(sc, alice, 1_000_000)
    harness.run_epochs(sc, 1)
    coin0 = harness.wallet(sc, alice).utxos()[0]
    harness.wallet(sc, alice).pay(KeyPair.from_seed("faults/bob").address, 1000)
    harness.run_epochs(sc, 1)
    return harness, sc, coin0


class TestWithheldDeltaAttack:
    def _rebuild(self, sc, witness, epoch_id):
        node = sc.node
        return node.cert_builder.build(
            epoch_id=epoch_id,
            witness=witness,
            h_prev_epoch_last=node._epoch_boundary_hash(epoch_id - 1),
            h_epoch_last=node._epoch_boundary_hash(epoch_id),
        )

    def test_withheld_delta_rejected_by_circuit(self, delta_scenario):
        """Rule 7: a delta hiding the touched slots cannot be proven."""
        harness, sc, coin0 = delta_scenario
        witness = sc.node.last_wcert_witness
        assert witness.mst_delta.touched  # the epoch really touched slots
        withheld = replace(
            witness,
            mst_delta=MstDelta.from_positions(witness.mst_delta.depth, ()),
        )
        with pytest.raises(UnsatisfiedConstraint):
            self._rebuild(sc, withheld, len(sc.node.certificates) - 1)

    def test_forged_proof_rejected_by_mainchain(self, delta_scenario):
        """Without a valid proof the withheld-delta certificate is refused."""
        harness, sc, coin0 = delta_scenario
        honest = sc.node.certificates[-1]
        forged = replace(
            honest,
            quality=honest.quality + 1,
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        trial = harness.mc.chain.state.copy()
        with pytest.raises(CertificateRejected):
            trial.cctp.process_certificate(
                forged,
                harness.mc.height + 1,
                lambda h: harness.mc.chain.block_at_height(h).hash,
            )

    def test_published_deltas_reveal_the_spend(self, delta_scenario):
        """The delta chain is exactly what lets the user detect spending."""
        from repro.latus.mst_delta import verify_unspent_across_epochs

        harness, sc, coin0 = delta_scenario
        witness = sc.node.last_wcert_witness
        anchor0 = sc.node.anchors[0]
        proof = anchor0.state_snapshot.mst.prove(coin0)
        # honest delta: the spend of coin0 is visible across epochs
        assert not verify_unspent_across_epochs(
            coin0, proof, anchor0.mst_root, [witness.mst_delta]
        )
        # the attacker's withheld (empty) delta would have hidden it — the
        # exact data-availability attack the circuit rejects above
        empty = MstDelta.from_positions(witness.mst_delta.depth, ())
        assert verify_unspent_across_epochs(
            coin0, proof, anchor0.mst_root, [empty]
        )
