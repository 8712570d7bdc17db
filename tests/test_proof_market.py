"""The paper's §5.4.1 dispatch sketch, read off :class:`MarketDispatcher`.

§5.4.1 asks for "a special dispatching scheme that assigns generation of
proofs randomly to interested parties ... An incentive scheme provides a
reward for each valid submission."  ``tests/test_market.py`` pins the
arXiv:2103.13754 mechanism (pools, stake weighting, slashing); this file
pins the sketch itself on the same dispatcher, attempt by attempt, from the
canonical schedule: seeded assignment, a payout for every accepted
submission and for nothing else, a retry that never returns to its
rejector, liveness under failing provers, and a root proof the mainchain
cannot tell from a single prover's.
"""

import pytest

from repro.crypto.keys import KeyPair
from repro.encoding import Decoder
from repro.errors import MarketError
from repro.latus.market import (
    FORGER,
    LazyBehaviour,
    LedgerParams,
    MarketDispatcher,
    MarketProver,
    RewardPool,
    SpamBehaviour,
    tree_tasks,
)
from repro.latus.proofs import EpochProver
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce

ALICE = KeyPair.from_seed("market/alice")

#: Outcome codes of one canonical schedule entry.
OUTCOMES = ("accepted", "no_submission", "invalid_proof", "transport", "forger_fallback")

#: Nobody is banned mid-epoch, so every prover stays assignable throughout.
NO_BANS = LedgerParams(ban_after_strikes=1_000)


def payment_chain(count: int, fee: int = 7):
    state = LatusState(10)
    current = Utxo(
        addr=address_to_field(ALICE.address), amount=5_000, nonce=derive_nonce(b"mkt")
    )
    state.mst.add(current)
    txs = []
    working = state.copy()
    for i in range(count):
        nxt = Utxo(
            addr=address_to_field(ALICE.address),
            amount=current.amount - fee,
            nonce=derive_nonce(b"mkt", i.to_bytes(4, "little")),
        )
        tx = sign_payment([(current, ALICE)], [nxt])
        working.apply(tx)
        txs.append(tx)
        current = nxt
    return state, txs


def honest_pool(n: int) -> list[MarketProver]:
    return [MarketProver(name=f"w{i}", stake=100) for i in range(n)]


def flaky(name: str, rate: float = 0.5) -> MarketProver:
    """Refuses a seeded fraction of its assignments (the old ``fail_every``)."""
    behaviour = LazyBehaviour(rate, seed=name.encode())
    return MarketProver(name=name, stake=100, behaviour=behaviour)


def attempts(report) -> list[tuple[tuple[int, int], int, str, str]]:
    """The schedule as ``((level, index), attempt, prover, outcome)`` rows."""
    dec = Decoder(report.schedule)
    rows = []
    while dec.remaining:
        dec.u8()  # kind: implied by level
        level, index, attempt = dec.u32(), dec.u32(), dec.u32()
        rows.append(((level, index), attempt, dec.text(), OUTCOMES[dec.u8()]))
    return rows


def payouts_from_schedule(report, dispatcher) -> dict[str, int]:
    """What each prover is owed if exactly the accepted attempts are paid."""
    statement = report.statement
    pool = RewardPool(statement.pool_in, dispatcher.forger_share_bp)
    task_rewards, _dust = pool.allocate(tree_tasks(report.base_tasks))
    owed: dict[str, int] = {}
    for key, _attempt, prover, outcome in attempts(report):
        if outcome == "accepted":
            owed[prover] = owed.get(prover, 0) + task_rewards[key]
    return owed


class TestHonestDispatch:
    def test_produces_valid_epoch_proof(self):
        dispatcher = MarketDispatcher(honest_pool(3))
        state, txs = payment_chain(6)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        assert report.proof.span == 6
        assert report.base_tasks == 6
        assert report.merge_tasks == 5
        assert report.proof.from_digest == state.digest()
        assert report.proof.to_digest == report.final_state.digest()

    def test_rewards_cover_every_task(self):
        dispatcher = MarketDispatcher(honest_pool(3))
        state, txs = payment_chain(4)
        report = dispatcher.prove_epoch(state, txs)
        rows = attempts(report)
        # every task of the tree was accepted exactly once, first time round
        assert sorted(key for key, *_ in rows) == sorted(
            t.key for t in tree_tasks(len(txs))
        )
        assert all(outcome == "accepted" for *_, outcome in rows)
        assert report.rejections == ()
        # and each accepted submission carries exactly one credited payout
        assert dict(report.statement.rewards) == payouts_from_schedule(
            report, dispatcher
        )
        assert report.statement.total_paid > 0

    def test_work_is_distributed(self):
        provers = honest_pool(4)
        state, txs = payment_chain(8)
        MarketDispatcher(provers).prove_epoch(state, txs)
        producing = [p for p in provers if p.proofs_produced > 0]
        assert len(producing) >= 2, "assignment should spread across provers"

    def test_assignment_is_deterministic(self):
        state, txs = payment_chain(4)
        ra = MarketDispatcher(honest_pool(3), seed=b"same").prove_epoch(state, txs)
        rb = MarketDispatcher(honest_pool(3), seed=b"same").prove_epoch(state, txs)
        assert attempts(ra) == attempts(rb)
        assert ra.statement.rewards == rb.statement.rewards

    def test_empty_epoch_rejected(self):
        dispatcher = MarketDispatcher(honest_pool(2))
        with pytest.raises(MarketError):
            dispatcher.prove_epoch(LatusState(10), [])


class TestMisbehaviour:
    def test_flaky_worker_does_not_break_the_epoch(self):
        dispatcher = MarketDispatcher(honest_pool(1) + [flaky("flaky")])
        state, txs = payment_chain(6)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        assert report.proof.span == 6

    def test_failures_forfeit_rewards(self):
        lazy = MarketProver(name="lazy", stake=100, behaviour=LazyBehaviour())
        spam = MarketProver(name="spam", stake=100, behaviour=SpamBehaviour())
        dispatcher = MarketDispatcher(
            [MarketProver(name="honest", stake=100), lazy, spam],
            ledger_params=NO_BANS,
        )
        state, txs = payment_chain(4)
        report = dispatcher.prove_epoch(state, txs)
        statement = report.statement
        assert statement.reward_of("lazy") == statement.reward_of("spam") == 0
        assert lazy.proofs_rejected > 0 and spam.proofs_rejected > 0
        # nothing is paid for a rejected submission: the payouts are exactly
        # those of the accepted attempts, all of them the honest prover's
        owed = payouts_from_schedule(report, dispatcher)
        assert set(owed) == {"honest"}
        assert dict(statement.rewards) == owed
        assert report.fallback_tasks == ()

    def test_all_lazy_pool_rejected_at_construction(self):
        # the market accepts such a pool and the forger's fallback carries
        # the epoch: no submission, so no payout to anyone in it
        lazy = MarketProver(name="lazy", stake=100, behaviour=LazyBehaviour())
        dispatcher = MarketDispatcher([lazy])
        state, txs = payment_chain(3)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        rows = attempts(report)
        assert not any(outcome == "accepted" for *_, outcome in rows)
        assert {key for key, _, who, _ in rows if who == FORGER} == {
            t.key for t in tree_tasks(len(txs))
        }
        assert report.statement.total_paid == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(MarketError):
            MarketDispatcher([])

    def test_rejected_counts_tracked_per_worker(self):
        unreliable = flaky("flaky", rate=0.4)
        dispatcher = MarketDispatcher(
            honest_pool(1) + [unreliable], ledger_params=NO_BANS
        )
        state, txs = payment_chain(8)
        report = dispatcher.prove_epoch(state, txs)
        refused = [who for who, _reason in report.rejections]
        assert refused.count("flaky") == unreliable.proofs_rejected
        assert unreliable.proofs_rejected > 0 and unreliable.proofs_produced > 0
        assert "w0" not in refused


class TestRejectorExclusion:
    """A retry must never return to the prover that failed the task —
    otherwise an unreliable prover farms rewards on its own rejections."""

    def test_retry_never_returns_to_rejector(self):
        provers = [
            MarketProver(name="honest", stake=100),
            flaky("flaky"),
            MarketProver(name="spam", stake=100, behaviour=SpamBehaviour()),
        ]
        dispatcher = MarketDispatcher(
            provers, seed=b"exclusion", ledger_params=NO_BANS
        )
        state, txs = payment_chain(8)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        retried = 0
        rejectors: dict[tuple[int, int], set[str]] = {}
        for key, attempt, name, outcome in attempts(report):
            prior = rejectors.setdefault(key, set())
            if name != FORGER and attempt > 0:
                retried += 1
                assert name not in prior, (
                    f"task {key} attempt {attempt} went back to its own "
                    f"rejector {name!r}"
                )
            if outcome != "accepted":
                prior.add(name)
        assert retried > 0, "scenario produced no retries; raise the failure rate"

    def test_first_attempt_assignment_unchanged(self):
        # with nobody to exclude, every task is settled by its attempt-0 draw
        state, txs = payment_chain(4)
        ra = MarketDispatcher(honest_pool(3), seed=b"same").prove_epoch(state, txs)
        rb = MarketDispatcher(honest_pool(3), seed=b"same").prove_epoch(state, txs)
        assert ra.schedule == rb.schedule
        assert all(attempt == 0 for _, attempt, _, _ in attempts(ra))
        assert ra.reassignments == 0

    def test_single_worker_pool_retains_liveness(self):
        # once its only prover has refused a task there is nobody left to
        # retry with: the forger proves it instead of the epoch deadlocking
        dispatcher = MarketDispatcher([flaky("only")], ledger_params=NO_BANS)
        state, txs = payment_chain(3)
        report = dispatcher.prove_epoch(state, txs)
        assert dispatcher.composer.verify(report.proof)
        assert report.fallback_tasks
        assert len(report.fallback_tasks) < report.base_tasks + report.merge_tasks


class TestEquivalenceWithLocalProving:
    def test_same_digests_as_single_prover(self):
        state, txs = payment_chain(5)
        local = EpochProver("per_transaction").prove_epoch(state.copy(), txs)
        provers = honest_pool(2) + [
            flaky("flaky"),
            MarketProver(name="spam", stake=100, behaviour=SpamBehaviour()),
        ]
        distributed = MarketDispatcher(provers).prove_epoch(state.copy(), txs)
        assert distributed.rejections, "scenario should include misbehaviour"
        assert local.proof.from_digest == distributed.proof.from_digest
        assert local.proof.to_digest == distributed.proof.to_digest
        # identical deterministic proofs: the MC cannot tell who proved it
        assert local.proof.proof == distributed.proof.proof
