"""Deterministic fault injection, crash recovery, and chaos convergence.

Covers the whole robustness stack: seeded :class:`FaultPlan` decisions
(byte-identical across runs), scheduled partitions, simulator integration
(labeled drop accounting, duplicate/reorder/spike delivery, handler
isolation), :class:`LatusNode` crash/restart/``sync_from`` recovery,
:class:`ProverPool` worker-failure injection with its retry/degrade policy,
and the three paper-critical stories:

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

import os

import pytest
from dataclasses import replace
from types import SimpleNamespace

from repro import observability
from repro.core.cctp import SidechainStatus
from repro.crypto.field import MODULUS
from repro.crypto.keys import KeyPair
from repro.errors import (
    CertificateRejected,
    ConsensusError,
    NetworkError,
    NodeCrashed,
    UnsatisfiedConstraint,
)
from repro.latus.block import forge_block
from repro.latus.mst_delta import MstDelta
from repro.latus.params import LatusParams
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import SidechainDeclarationTx
from repro.network import (
    CLEAN,
    FaultPlan,
    LatencyModel,
    NetworkSimulator,
    NEVER,
    partition,
)
from repro.scenarios import MultiNodeDeployment, ZendooHarness, latus_sidechain_config
from repro.snark import proving
from repro.snark.pool import ProverPool, WorkerFaultInjector
from repro.snark.recursive import RecursiveComposer


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


class TestHandlerIsolation:
    def test_raising_handler_does_not_poison_broadcast(self):
        registry = observability.registry()
        errors_counter = registry.get("repro_network_handler_errors_total")
        before = errors_counter.value()
        sim = NetworkSimulator(latency=LatencyModel(seed=b"iso"))
        got = []

        def bad(src, msg):
            raise RuntimeError("poisoned handler")

        sim.register("a", lambda src, msg: None)
        sim.register("bad", bad)
        sim.register("c", lambda src, msg: got.append(msg))
        sim.broadcast("a", "hello")
        sim.run()
        assert got == ["hello"]  # the healthy node still got it
        assert len(sim.handler_errors) == 1
        err = sim.handler_errors[0]
        assert (err.src, err.dst) == ("a", "bad")
        assert isinstance(err.error, RuntimeError)
        assert errors_counter.value() == before + 1

    def test_capture_disabled_propagates(self):
        sim = NetworkSimulator(
            latency=LatencyModel(seed=b"iso2"), capture_handler_errors=False
        )
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

MINER = KeyPair.from_seed("faults/miner")
CREATOR = KeyPair.from_seed("faults/creator")
STAKERS = [KeyPair.from_seed(f"faults/staker-{i}") for i in range(2)]


def make_deployment(seed="faults-dep"):
    mc = MainchainNode(MainchainParams(pow_zero_bits=2, coinbase_maturity=1))
    mc.mine_blocks(MINER.address, 2)
    config = latus_sidechain_config(
        seed, start_block=mc.height + 2, epoch_len=4, submit_len=2
    )
    mc.submit_transaction(SidechainDeclarationTx(config=config))
    mc.mine_block(MINER.address)
    deployment = MultiNodeDeployment(
        config=config,
        params=LatusParams(mst_depth=10, slots_per_epoch=6),
        mc_node=mc,
        creator=CREATOR,
        stakeholders=STAKERS,
    )
    return mc, config, deployment


@pytest.fixture
def deployment():
    return make_deployment()


class TestCrashRestart:
    def test_crashed_node_refuses_chain_apis(self, deployment):
        mc, config, dep = deployment
        dep.run(MINER.address, 3)
        node = dep.nodes["node-0"]
        node.crash()
        node.crash()  # idempotent
        with pytest.raises(NodeCrashed):
            node.sync()
        with pytest.raises(NodeCrashed):
            node.receive_block(dep.nodes["creator"].blocks[-1])
        with pytest.raises(NodeCrashed):
            node.sync_from(dep.nodes["creator"])
        assert node.crashed

    def test_restart_rebuilds_from_genesis(self, deployment):
        mc, config, dep = deployment
        dep.run(MINER.address, 3)
        node = dep.nodes["node-0"]
        height_before = node.height
        assert height_before >= 0
        node.crash()
        node.restart()
        assert not node.crashed
        assert node.restarts == 1
        assert node.height == -1  # fresh chain, ready to resync

    def test_crash_mid_epoch_resync_reaches_same_digest(self, deployment):
        """Story 2: crash mid-epoch, restart, resync — byte-identical state."""
        mc, config, dep = deployment
        dep.run(MINER.address, 5)  # inside an epoch (epoch_len=4, started later)
        victim = dep.nodes["node-1"]
        reference = dep.nodes["creator"]
        victim.crash()
        victim.restart()
        adopted = victim.sync_from(reference)
        assert adopted == len(reference.blocks)
        assert victim.height == reference.height
        assert victim.tip_hash == reference.tip_hash
        assert victim.state.digest() == reference.state.digest()
        # the resynced node keeps participating normally
        dep.run(MINER.address, 2)
        dep.assert_converged()

    def test_sync_from_bad_peer_retries_then_fails(self, deployment):
        mc, config, dep = deployment
        dep.run(MINER.address, 3)
        node = dep.nodes["node-0"]
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
        node.sync_from(dep.nodes["creator"])
        assert node.height == good_height


# ---------------------------------------------------------------------------
# ProverPool worker-failure injection
# ---------------------------------------------------------------------------


class FaultCounterSystem:
    """Toy transition system (module level so pool workers can unpickle it)."""

    name = "faults-test-counter"

    def apply(self, transition: int, state: int) -> int:
        return state + transition

    def digest(self, state: int) -> int:
        return state % MODULUS

    def synthesize_transition(self, builder, state, transition, next_state):
        s = builder.alloc(state)
        t = builder.alloc(transition)
        n = builder.alloc(next_state)
        builder.enforce_equal(builder.add(s, t), n, "counter/step")


class StaysHome(int):
    """A transition that refuses to pickle: it can never reach a worker."""

    def __reduce__(self):
        raise TypeError("this transition stays in the parent process")


class KillsWorker(int):
    """A transition whose unpickling ends the worker process that reads it."""

    def __reduce__(self):
        return (os._exit, (3,))


class UnshippableCounterSystem(FaultCounterSystem):
    """A system that refuses to pickle, and with it its Base proving key."""

    name = "faults-test-unshippable"

    def __reduce__(self):
        raise TypeError("this system stays in the parent process")


class TestWorkerFaultInjector:
    def test_rate_validated(self):
        from repro.errors import SnarkError

        with pytest.raises(SnarkError):
            WorkerFaultInjector(2.0)

    def test_deterministic_in_seed_and_index(self):
        a = WorkerFaultInjector(0.5, seed=b"inj")
        b = WorkerFaultInjector(0.5, seed=b"inj")
        assert [a.should_fail(i) for i in range(64)] == [
            b.should_fail(i) for i in range(64)
        ]
        assert any(a.should_fail(i) for i in range(64))
        assert not all(a.should_fail(i) for i in range(64))

    def test_extreme_rates(self):
        assert not any(WorkerFaultInjector(0.0).should_fail(i) for i in range(32))
        assert all(WorkerFaultInjector(1.0).should_fail(i) for i in range(32))


class TestPoolFaultRecovery:
    def test_all_dispatches_failing_degrades_to_serial(self):
        composer = RecursiveComposer(FaultCounterSystem())
        root_s, final_s, _ = composer.prove_sequence(0, [1, 2, 3])
        with ProverPool(
            max_workers=2,
            clamp_to_cpus=False,
            fault_injector=WorkerFaultInjector(1.0, seed=b"allfail"),
        ) as pool:
            root_p, final_p, _ = composer.prove_sequence(0, [1, 2, 3], pool=pool)
        assert final_p == final_s
        assert root_p.proof.data == root_s.proof.data
        assert pool.serial  # retries exhausted -> permanent serial fallback
        assert pool.stats.injected_failures > 0
        assert "retries" in pool.stats.fallback_reason or pool.stats.fallback_reason

    def test_partial_failures_retried_with_identical_results(self):
        composer = RecursiveComposer(FaultCounterSystem())
        root_s, final_s, _ = composer.prove_sequence(0, [5, 7, 11, 13])
        registry = observability.registry()
        retries = registry.get("repro_pool_retries_total")
        before = retries.value()
        with ProverPool(
            max_workers=2,
            clamp_to_cpus=False,
            fault_injector=WorkerFaultInjector(0.4, seed=b"flaky"),
        ) as pool:
            root_p, final_p, _ = composer.prove_sequence(0, [5, 7, 11, 13], pool=pool)
        assert final_p == final_s
        assert root_p.proof.data == root_s.proof.data
        assert pool.stats.injected_failures > 0
        assert pool.stats.retries > 0
        assert retries.value() == before + pool.stats.retries
        assert pool.stats.to_dict()["injected_failures"] == pool.stats.injected_failures

    def test_map_prove_failures_recovered(self):
        # drives map_prove through the composer's parallel base stage
        composer = RecursiveComposer(FaultCounterSystem())
        with ProverPool(
            max_workers=2,
            clamp_to_cpus=False,
            fault_injector=WorkerFaultInjector(0.5, seed=b"mapfail"),
        ) as pool:
            root_p, final_p, _ = composer.prove_sequence(0, [2, 4, 6, 8], pool=pool)
        root_s, final_s, _ = composer.prove_sequence(0, [2, 4, 6, 8])
        assert final_p == final_s
        assert root_p.proof.data == root_s.proof.data

    @staticmethod
    def prove_both_ways(composer, transitions):
        """(serial root, pooled root, pool) for the same transitions."""
        root_s, _, _ = composer.prove_sequence(0, transitions)
        with ProverPool(max_workers=2, clamp_to_cpus=False) as pool:
            root_p, _, _ = composer.prove_sequence(0, transitions, pool=pool)
        return root_s, root_p, pool

    def test_unpicklable_payload_degrades_at_dispatch(self):
        composer = RecursiveComposer(FaultCounterSystem())
        root_s, root_p, pool = self.prove_both_ways(composer, [1, StaysHome(2), 3])
        assert root_p.proof.data == root_s.proof.data
        assert pool.serial and pool.stats.retries > 0
        assert "stays in the parent process" in pool.stats.fallback_reason

    def test_worker_dying_mid_round_degrades(self):
        composer = RecursiveComposer(FaultCounterSystem())
        root_s, root_p, pool = self.prove_both_ways(composer, [1, KillsWorker(2), 3])
        assert root_p.proof.data == root_s.proof.data
        assert pool.serial and pool.stats.retries > 0
        assert "terminated abruptly" in pool.stats.fallback_reason

    def test_unpicklable_key_degrades_at_executor_start(self):
        composer = RecursiveComposer(UnshippableCounterSystem())
        root_s, root_p, pool = self.prove_both_ways(composer, [1, 2, 3])
        assert root_p.proof.data == root_s.proof.data
        assert pool.serial and pool.stats.chunks == 0
        assert pool.stats.fallback_reason.startswith("executor start failed")


# ---------------------------------------------------------------------------
# Chaos deployment (acceptance)
# ---------------------------------------------------------------------------


def chaos_plan():
    return FaultPlan(
        seed=b"chaos-accept",
        drop_rate=0.05,
        duplicate_rate=0.05,
        reorder_rate=0.1,
        spike_rate=0.05,
        partitions=(
            partition(
                [("creator", "node-0"), ("node-1",)], from_t=2.0, until_t=6.0
            ),
        ),
    )


class TestChaosConvergence:
    def test_chaos_run_converges_and_reproduces(self):
        def run():
            mc, config, dep = make_deployment()
            report = dep.run_chaos(
                MINER.address,
                rounds=10,
                plan=chaos_plan(),
                crash_at={3: ["node-1"]},
                restart_at={6: ["node-1"]},
            )
            return report

        first = run()
        assert first.converged
        assert first.crashes == 1
        assert first.restarts >= 1
        assert first.final_height >= 0
        assert first.fault_schedule  # faults actually fired
        assert first.fault_counts.get("partition", 0) > 0

        second = run()
        # same seed -> byte-identical fault schedule and identical outcome
        assert second.fault_schedule == first.fault_schedule
        assert (second.final_height, second.final_digest) == (
            first.final_height,
            first.final_digest,
        )

    def test_clean_plan_chaos_equals_lockstep(self):
        mc, config, dep = make_deployment()
        report = dep.run_chaos(MINER.address, rounds=6, plan=FaultPlan())
        assert report.converged
        assert report.fault_schedule == b""
        assert report.sc_blocks_forged > 0
        dep.assert_converged()

    def test_crash_without_partition_recovers(self):
        mc, config, dep = make_deployment()
        report = dep.run_chaos(
            MINER.address,
            rounds=8,
            plan=FaultPlan(seed=b"crash-only"),
            crash_at={2: ["node-0"]},
            restart_at={5: ["node-0"]},
        )
        assert report.converged
        assert report.crashes == 1
        assert dep.nodes["node-0"].restarts >= 1


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
