"""Tests for the Latus proof market (repro.latus.market) — arXiv:2103.13754.

Covers the four mechanism layers: position-weighted reward pools with exact
integer conservation (fuzzed over random fee/tree shapes), stake-weighted
deterministic assignment with offender exclusion, the slashing/banning
ledger carried across epochs, and the dispatcher's end-to-end contract
(honest parity with ``EpochProver``, byte-identical same-seed schedules,
forger-fallback liveness).
"""

import hashlib
import random

import pytest

from repro.crypto.keys import KeyPair
from repro.errors import MarketError
from repro.latus.market import (
    BP_DENOM,
    CartelBehaviour,
    HonestBehaviour,
    LazyBehaviour,
    LedgerParams,
    MarketDispatcher,
    MarketProver,
    ProverLedger,
    RewardPool,
    RewardStatement,
    SpamBehaviour,
    StakeWeightedAssigner,
    tree_tasks,
)
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.scenarios.adversarial import payment_epoch

ALICE = KeyPair.from_seed("market/alice")


def fee_chain(count: int, fee: int = 7, start: int = 10_000):
    """A payment chain where every tx pays ``fee`` into the reward pool."""
    state = LatusState(10)
    current = Utxo(
        addr=address_to_field(ALICE.address), amount=start, nonce=derive_nonce(b"mkt2")
    )
    state.mst.add(current)
    txs = []
    working = state.copy()
    for i in range(count):
        nxt = Utxo(
            addr=address_to_field(ALICE.address),
            amount=current.amount - fee,
            nonce=derive_nonce(b"mkt2", i.to_bytes(4, "little")),
        )
        tx = sign_payment([(current, ALICE)], [nxt])
        working.apply(tx)
        txs.append(tx)
        current = nxt
    return state, txs


def honest_provers(n: int, stake: int = 100) -> list[MarketProver]:
    return [MarketProver(name=f"p{i}", stake=stake) for i in range(n)]


class TestTreeTasks:
    def test_mirrors_merge_all_pairing(self):
        # 5 bases: level1 merges (0,1) and (2,3); 4 carries; level2 merges
        # the two; the carry joins at level3
        tasks = tree_tasks(5)
        merges = [(t.level, t.index, t.span) for t in tasks if t.kind == "merge"]
        assert merges == [(1, 0, 2), (1, 1, 2), (2, 0, 4), (3, 0, 5)]
        assert sum(1 for t in tasks if t.kind == "base") == 5

    def test_power_of_two_tree(self):
        tasks = tree_tasks(8)
        assert sum(1 for t in tasks if t.kind == "merge") == 7
        root = max(tasks, key=lambda t: t.level)
        assert root.span == 8

    def test_single_transition_has_no_merges(self):
        tasks = tree_tasks(1)
        assert [t.kind for t in tasks] == ["base"]

    def test_empty_epoch_rejected(self):
        with pytest.raises(MarketError):
            tree_tasks(0)


class TestRewardPool:
    def test_forger_cut_and_prover_pool_partition(self):
        pool = RewardPool(1_000, forger_share_bp=2_500)
        assert pool.forger_cut == 250
        assert pool.forger_cut + pool.prover_pool == 1_000

    def test_allocation_is_position_weighted(self):
        pool = RewardPool(1_000, forger_share_bp=0)
        tasks = tree_tasks(4)
        rewards, _ = pool.allocate(tasks)
        # the root (span 4) pays more than any base (span 1)
        root = max(tasks, key=lambda t: t.level)
        base = tasks[0]
        assert rewards[root.key] > rewards[base.key]
        total_weight = sum(t.span for t in tasks)
        assert rewards[root.key] == 1_000 * root.span // total_weight
        assert rewards[base.key] == 1_000 * base.span // total_weight

    def test_conservation_fuzz_over_random_shapes(self):
        """Reward conservation holds exactly for arbitrary fees and trees."""
        rng = random.Random(0xC0FFEE)
        for _ in range(200):
            pool_in = rng.randrange(0, 10_000_000)
            bp = rng.randrange(0, BP_DENOM + 1)
            base_count = rng.randrange(1, 40)
            pool = RewardPool(pool_in, bp)
            rewards, dust = pool.allocate(tree_tasks(base_count))
            assert dust >= 0
            assert sum(rewards.values()) + dust == pool.prover_pool
            assert pool.forger_cut + pool.prover_pool == pool_in

    def test_invalid_pool_rejected(self):
        with pytest.raises(MarketError):
            RewardPool(-1, 0)
        with pytest.raises(MarketError):
            RewardPool(10, BP_DENOM + 1)


class TestRewardStatement:
    def _statement(self, **overrides):
        fields = dict(
            epoch=3,
            fees_in=90,
            carried_in=10,
            forger_share_bp=2_000,
            forger_reward=25,
            rewards=(("a", 40), ("b", 35)),
            slashed=(("c", 5),),
            slash_pot_out=5,
        )
        fields.update(overrides)
        return RewardStatement(**fields)

    def test_conservation_property(self):
        assert self._statement().conservation_ok
        assert not self._statement(forger_reward=26).conservation_ok

    def test_lookups(self):
        stmt = self._statement()
        assert stmt.reward_of("a") == 40
        assert stmt.reward_of("nobody") == 0
        assert stmt.slashed_of("c") == 5

    def test_encode_is_deterministic_and_injective(self):
        assert self._statement().encode() == self._statement().encode()
        assert self._statement().encode() != self._statement(epoch=4).encode()
        assert (
            self._statement().encode()
            != self._statement(rewards=(("a", 41), ("b", 34))).encode()
        )


class TestStakeWeightedAssigner:
    STAKES = [("a", 100), ("b", 300), ("c", 600)]

    def test_same_inputs_same_pick(self):
        one = StakeWeightedAssigner(b"seed")
        two = StakeWeightedAssigner(b"seed")
        picks = [(lvl, i, n) for lvl in range(3) for i in range(4) for n in range(2)]
        assert [one.pick(self.STAKES, *p) for p in picks] == [
            two.pick(self.STAKES, *p) for p in picks
        ]

    def test_different_seed_different_schedule(self):
        one = StakeWeightedAssigner(b"seed-1")
        two = StakeWeightedAssigner(b"seed-2")
        picks = [one.pick(self.STAKES, 0, i, 0) for i in range(32)]
        other = [two.pick(self.STAKES, 0, i, 0) for i in range(32)]
        assert picks != other

    def test_frequency_tracks_stake(self):
        assigner = StakeWeightedAssigner(b"freq")
        counts = {"a": 0, "b": 0, "c": 0}
        n = 600
        for i in range(n):
            counts[assigner.pick(self.STAKES, 0, i, 0)] += 1
        # c holds 60% of stake, a 10%: the ranking must reflect it
        assert counts["c"] > counts["b"] > counts["a"] > 0

    def test_excluded_is_never_picked(self):
        assigner = StakeWeightedAssigner(b"excl")
        for i in range(64):
            assert assigner.pick(self.STAKES, 0, i, 1, excluded={"c"}) != "c"

    def test_no_eligible_prover_raises(self):
        assigner = StakeWeightedAssigner(b"none")
        with pytest.raises(MarketError):
            assigner.pick(self.STAKES, 0, 0, 0, excluded={"a", "b", "c"})
        with pytest.raises(MarketError):
            assigner.pick([("a", 0)], 0, 0, 0)


class TestProverLedger:
    def test_strikes_slash_only_fraud(self):
        ledger = ProverLedger()
        ledger.register("p", 1_000)
        lazy = ledger.note_rejection("p", "no_submission")
        assert lazy.slashed == 0 and ledger.slash_pot == 0
        fraud = ledger.note_rejection("p", "invalid_proof")
        assert fraud.slashed == 1_000 * 500 // BP_DENOM
        assert ledger.accounts["p"].stake == 1_000 - fraud.slashed
        assert ledger.slash_pot == fraud.slashed

    def test_ban_after_strikes_and_expiry(self):
        ledger = ProverLedger(params=LedgerParams(ban_after_strikes=2, ban_epochs=2))
        ledger.register("p", 100)
        ledger.register("q", 100)
        ledger.note_rejection("p", "no_submission")
        outcome = ledger.note_rejection("p", "no_submission")
        assert outcome.banned
        assert [name for name, _ in ledger.active_stakes()] == ["q"]
        ledger.advance_epoch()  # epoch 1: still banned
        assert [name for name, _ in ledger.active_stakes()] == ["q"]
        ledger.advance_epoch()  # epoch 2: ban expired
        assert [name for name, _ in ledger.active_stakes()] == ["p", "q"]

    def test_epoch_strikes_reset_but_totals_persist(self):
        ledger = ProverLedger()
        ledger.register("p", 100)
        ledger.note_rejection("p", "transport")
        ledger.advance_epoch()
        account = ledger.accounts["p"]
        assert account.strikes_epoch == 0 and account.strikes_total == 1

    def test_take_pot_drains(self):
        ledger = ProverLedger()
        ledger.register("p", 10_000)
        ledger.note_rejection("p", "invalid_proof")
        pot = ledger.take_pot()
        assert pot > 0 and ledger.slash_pot == 0 and ledger.take_pot() == 0

    def test_registration_guards(self):
        ledger = ProverLedger()
        ledger.register("p", 100)
        with pytest.raises(MarketError):
            ledger.register("p", 100)
        with pytest.raises(MarketError):
            ledger.register("q", 0)
        with pytest.raises(MarketError):
            ledger.note_rejection("p", "sneezed")

    def test_encode_reflects_state(self):
        one, two = ProverLedger(), ProverLedger()
        for ledger in (one, two):
            ledger.register("p", 100)
        assert one.encode() == two.encode()
        one.note_rejection("p", "no_submission")
        assert one.encode() != two.encode()


class TestMarketDispatcher:
    def test_honest_epoch_matches_local_prover_bytes(self):
        from repro.latus.proofs import EpochProver

        state, txs = fee_chain(6)
        local = EpochProver("per_transaction").prove_epoch(state.copy(), txs)
        report = MarketDispatcher(honest_provers(4)).prove_epoch(state.copy(), txs)
        assert report.proof == local.proof  # identical deterministic proofs
        assert report.final_state.digest() == local.final_state.digest()

    def test_conservation_holds_with_attacker(self):
        state, txs = fee_chain(5)
        provers = honest_provers(3) + [
            MarketProver(name="evil", stake=300, behaviour=SpamBehaviour())
        ]
        report = MarketDispatcher(provers).prove_epoch(state, txs)
        assert report.statement.conservation_ok
        assert report.statement.reward_of("evil") == 0

    def test_same_seed_byte_identical_schedule_and_statement(self):
        state, txs = fee_chain(6)
        runs = []
        for _ in range(2):
            dispatcher = MarketDispatcher(honest_provers(4), seed=b"det")
            runs.append(dispatcher.prove_epoch(state, txs))
        assert runs[0].schedule == runs[1].schedule
        assert runs[0].statement.encode() == runs[1].statement.encode()

    def test_different_seed_changes_schedule(self):
        state, txs = fee_chain(6)
        one = MarketDispatcher(honest_provers(4), seed=b"a").prove_epoch(state, txs)
        two = MarketDispatcher(honest_provers(4), seed=b"b").prove_epoch(state, txs)
        assert one.schedule != two.schedule
        assert one.proof == two.proof  # the proof never depends on the market

    def test_slash_pot_funds_next_epoch(self):
        state, txs = fee_chain(4)
        provers = honest_provers(2) + [
            MarketProver(name="evil", stake=1_000, behaviour=SpamBehaviour())
        ]
        dispatcher = MarketDispatcher(provers)
        first = dispatcher.prove_epoch(state, txs)
        assert first.statement.slash_pot_out > 0
        state2, txs2 = fee_chain(4, fee=3)
        second = dispatcher.prove_epoch(state2, txs2)
        assert second.statement.carried_in == first.statement.slash_pot_out
        assert second.statement.conservation_ok

    def test_forger_fallback_preserves_liveness(self):
        # every prover refuses everything: the forger proves every task and
        # collects every reward, and the epoch still completes
        state, txs = fee_chain(3)
        provers = [
            MarketProver(name=f"p{i}", stake=100, behaviour=LazyBehaviour())
            for i in range(2)
        ]
        dispatcher = MarketDispatcher(provers)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        assert len(report.fallback_tasks) == report.base_tasks + report.merge_tasks
        assert report.statement.total_paid == 0
        assert report.statement.forger_reward == report.statement.pool_in
        assert report.statement.conservation_ok

    def test_rejected_prover_not_retried_on_same_task(self):
        state, txs = fee_chain(5)
        provers = honest_provers(2) + [
            MarketProver(name="flaky", stake=800, behaviour=LazyBehaviour())
        ]
        report = MarketDispatcher(provers).prove_epoch(state, txs)
        # flaky refuses every assignment, so it can appear at most once per
        # task in the rejections — and never earns
        assert report.statement.reward_of("flaky") == 0
        per_task = {}
        for name, _reason in report.rejections:
            per_task[name] = per_task.get(name, 0) + 1
        assert per_task.get("flaky", 0) <= report.base_tasks + report.merge_tasks

    def test_base_subsidy_funds_pool_without_fees(self):
        state, txs = fee_chain(3, fee=0)
        report = MarketDispatcher(
            honest_provers(2), base_subsidy=10
        ).prove_epoch(state, txs)
        assert report.statement.fees_in == 30
        assert report.statement.conservation_ok

    def test_constructor_guards(self):
        with pytest.raises(MarketError):
            MarketDispatcher([])
        with pytest.raises(MarketError):
            MarketDispatcher(honest_provers(2) + honest_provers(1))
        with pytest.raises(MarketError):
            MarketDispatcher([MarketProver(name="forger", stake=10)])

    def test_empty_epoch_rejected(self):
        with pytest.raises(MarketError):
            MarketDispatcher(honest_provers(2)).prove_epoch(LatusState(10), [])


class TestGoldenEpoch:
    #: blake2b-128 of schedule ‖ statement ‖ root-proof bytes, recorded when
    #: the market walked its own copy of the merge tree; reading
    #: ``merge_plan`` must not move a byte of it.
    DIGEST = "cf5a171ed18e1bc7a3338537730dd71e"

    def test_adversarial_epoch_bytes_are_pinned(self):
        state, txs = payment_epoch(7, b"golden")
        provers = [
            MarketProver(name="honest", stake=300),
            MarketProver(name="lazy", stake=500, behaviour=LazyBehaviour()),
            MarketProver(name="cartel", stake=400, behaviour=CartelBehaviour(level=1)),
        ]
        report = MarketDispatcher(provers, seed=b"golden").prove_epoch(state, txs)
        material = report.schedule + report.statement.encode() + report.proof.proof.data
        assert hashlib.blake2b(material, digest_size=16).hexdigest() == self.DIGEST


class TestHonestBehaviourDefault:
    def test_default_prover_is_honest(self):
        prover = MarketProver(name="p", stake=1)
        assert isinstance(prover.behaviour, HonestBehaviour)
