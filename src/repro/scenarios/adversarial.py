"""Red-team scenarios for the Latus proof market (arXiv:2103.13754).

Each scenario stages one attack class from the incentive paper's threat
model against :class:`~repro.latus.market.MarketDispatcher` and gates the
outcome on explicit checks, the way the ALLSSS audit corpus turns each
finding into a deterministic regression:

* the epoch is still proven (**liveness**) and the root proof + final
  state digest are **byte-identical** to the honest run (soundness: an
  attacker can redirect payouts, never corrupt state);
* the offender goes **unpaid**, and where the offence is provable fraud,
  **slashed** and eventually **banned**;
* the attack is **visible** in the ``repro_market_*`` counter families
  (the metric-gated part: every check reads a counter delta or a ledger
  fact, never a log line);
* reward **conservation holds exactly** despite the attack;
* a replay with the same seed and prover set reproduces a byte-identical
  schedule and :class:`~repro.latus.market.RewardStatement`.

Everything is seeded: transaction chains, assignment draws, laziness
patterns (:class:`~repro.latus.market.LazyBehaviour`) and network
losses (:class:`~repro.network.faults.FaultPlan`) all derive from the
scenario seed, so a failing scenario is a reproducible artifact, not a
flake.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observability
from repro.crypto.keys import KeyPair
from repro.latus.market import (
    CartelBehaviour,
    CensorBehaviour,
    HonestBehaviour,
    LazyBehaviour,
    LedgerParams,
    MarketDispatcher,
    MarketEpochReport,
    MarketProver,
    SpamBehaviour,
    StakeWeightedAssigner,
)
from repro.latus.state import LatusState
from repro.latus.transactions import LatusTransaction, sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.network.faults import FaultPlan
from repro.observability.export import flatten

_PREFIX = "repro_market_"


def payment_epoch(
    tx_count: int, seed: bytes, start_amount: int = 10_000
) -> tuple[LatusState, list[LatusTransaction]]:
    """A seeded fee-bearing payment chain (fees fund the reward pool)."""
    keys = KeyPair.from_seed(f"adversarial/{seed.hex()}")
    state = LatusState(10)
    current = Utxo(
        addr=address_to_field(keys.address),
        amount=start_amount,
        nonce=derive_nonce(b"adv", seed),
    )
    state.mst.add(current)
    txs = []
    working = state.copy()
    for i in range(tx_count):
        fee = 5 + (i % 4)  # uneven fees exercise the integer split
        nxt = Utxo(
            addr=address_to_field(keys.address),
            amount=current.amount - fee,
            nonce=derive_nonce(b"adv", seed, i.to_bytes(4, "little")),
        )
        tx = sign_payment([(current, keys)], [nxt])
        working.apply(tx)
        txs.append(tx)
        current = nxt
    return state, txs


@dataclass(frozen=True)
class ScenarioReport:
    """The gated outcome of one adversarial scenario."""

    name: str
    seed: bytes
    tx_count: int
    #: Every gate, by name — the scenario passes iff all are True.
    checks: dict[str, bool]
    #: ``repro_market_*`` counter deltas observed across the attack run.
    metric_deltas: dict[str, float]
    #: Headline payout facts of the attack epoch.
    statement: dict[str, int]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def failed_checks(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed.hex(),
            "tx_count": self.tx_count,
            "passed": self.passed,
            "checks": dict(self.checks),
            "metric_deltas": dict(self.metric_deltas),
            "statement": dict(self.statement),
        }


class AdversarialScenario:
    """Base class: honest reference run, attack run, replay, common gates."""

    #: Registry key and report name.
    name: str = "adversarial"

    def stakes(self) -> list[tuple[str, int]]:
        """The prover population as ``(name, stake)`` (attack and honest
        runs share it, so digests are comparable)."""
        return [("p0", 100), ("p1", 100), ("p2", 100), ("p3", 100)]

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        """The attack run's provers (override to plant the adversary)."""
        raise NotImplementedError

    def fault_plan(self, seed: bytes) -> FaultPlan | None:
        """Network misbehaviour for the attack run (default: none)."""
        return None

    def ledger_params(self) -> LedgerParams | None:
        """Punishment-policy override for this scenario (default policy)."""
        return None

    def specific_checks(
        self,
        report: MarketEpochReport,
        dispatcher: MarketDispatcher,
        deltas: dict[str, float],
        seed: bytes,
    ) -> dict[str, bool]:
        """The attack's own gates (offender unpaid, detection fired, ...)."""
        raise NotImplementedError

    # -- machinery -----------------------------------------------------------------

    def _dispatcher(self, seed: bytes, honest: bool) -> MarketDispatcher:
        if honest:
            provers = [
                MarketProver(name=name, stake=stake, behaviour=HonestBehaviour())
                for name, stake in self.stakes()
            ]
            plan = None
        else:
            provers = self.attack_provers(seed)
            plan = self.fault_plan(seed)
        return MarketDispatcher(
            provers,
            seed=seed,
            fault_plan=plan,
            ledger_params=self.ledger_params(),
        )

    def run(self, seed: bytes = b"adversarial", tx_count: int = 6) -> ScenarioReport:
        """Stage the attack and gate every expected outcome."""
        scenario_seed = seed + b"/" + self.name.encode()
        state, txs = payment_epoch(tx_count, scenario_seed)

        honest = self._dispatcher(scenario_seed, honest=True).prove_epoch(state, txs)

        before = flatten(observability.registry())
        dispatcher = self._dispatcher(scenario_seed, honest=False)
        report = dispatcher.prove_epoch(state, txs)
        after = flatten(observability.registry())
        deltas = {
            key: after[key] - before.get(key, 0.0)
            for key in after
            if key.startswith(_PREFIX) and after[key] != before.get(key, 0.0)
        }

        replay = self._dispatcher(scenario_seed, honest=False).prove_epoch(state, txs)

        checks = {
            "epoch_proven": dispatcher.composer.verify(report.proof),
            "proof_matches_honest": report.proof == honest.proof,
            "digest_matches_honest": report.final_state.digest()
            == honest.final_state.digest(),
            "conservation_exact": report.statement.conservation_ok,
            "deterministic_replay": replay.schedule == report.schedule
            and replay.statement.encode() == report.statement.encode(),
        }
        checks.update(self.specific_checks(report, dispatcher, deltas, scenario_seed))
        return ScenarioReport(
            name=self.name,
            seed=scenario_seed,
            tx_count=tx_count,
            checks=checks,
            metric_deltas=deltas,
            statement={
                "fees_in": report.statement.fees_in,
                "pool_in": report.statement.pool_in,
                "forger_reward": report.statement.forger_reward,
                "total_paid": report.statement.total_paid,
                "total_slashed": report.statement.total_slashed,
                "slash_pot_out": report.statement.slash_pot_out,
            },
        )


class LazyProverScenario(AdversarialScenario):
    """A high-stake prover that never delivers (seeded laziness at rate 1).

    Expected: the lazy prover earns nothing, is struck for every refusal
    and banned within the epoch; stake is NOT slashed (absence is not
    provable fraud); every refused task lands with an honest prover.
    """

    name = "lazy-prover"

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        lazy = LazyBehaviour(1.0, seed=seed)
        return [
            MarketProver(name="p0", stake=100),
            MarketProver(name="p1", stake=100),
            MarketProver(name="p2", stake=100),
            MarketProver(name="p3", stake=100, behaviour=lazy),
        ]

    def specific_checks(self, report, dispatcher, deltas, seed):
        account = dispatcher.ledger.accounts["p3"]
        return {
            "offender_unpaid": report.statement.reward_of("p3") == 0,
            "offender_struck": account.strikes_total > 0,
            "offender_banned": account.banned_until > 0,
            "offender_not_slashed": account.slashed_total == 0,
            "refusals_detected": deltas.get(
                'repro_market_rejections_total{reason="no_submission"}', 0
            ) > 0,
            "no_forger_fallback": not report.fallback_tasks,
        }


class InvalidProofSpamScenario(AdversarialScenario):
    """A prover that floods the forger with garbage proofs.

    Expected: every submission is rejected as provable fraud, the spammer
    is slashed per offence and banned, the slashed stake lands in the pot
    for the next epoch, and the epoch's proof is untouched.
    """

    name = "invalid-proof-spam"

    def stakes(self) -> list[tuple[str, int]]:
        return [("p0", 100), ("p1", 100), ("p2", 100), ("evil", 400)]

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        return [
            MarketProver(name="p0", stake=100),
            MarketProver(name="p1", stake=100),
            MarketProver(name="p2", stake=100),
            MarketProver(name="evil", stake=400, behaviour=SpamBehaviour()),
        ]

    def specific_checks(self, report, dispatcher, deltas, seed):
        account = dispatcher.ledger.accounts["evil"]
        return {
            "offender_unpaid": report.statement.reward_of("evil") == 0,
            "offender_slashed": account.slashed_total > 0,
            "offender_banned": account.banned_until > 0,
            "slash_pot_carried": report.statement.slash_pot_out > 0,
            "fraud_detected": deltas.get(
                'repro_market_rejections_total{reason="invalid_proof"}', 0
            ) > 0,
            "slashes_counted": deltas.get("repro_market_slashes_total", 0) > 0,
        }


class CensorshipScenario(AdversarialScenario):
    """A prover that refuses exactly the tx proofs it was assigned first.

    The censor targets the transactions whose base tasks the assignment
    draw hands it on attempt 0 (computed by replaying the public draw — the
    assignment rule is verifiable, so the attacker can predict its own
    assignments, and the market can audit the refusals).  Expected: each
    targeted txid is flagged by the censorship detector, the tx is still
    proven by a reassigned prover, and the censor earns nothing on the
    tasks it refused.

    Banning is switched off for this scenario: a mid-epoch ban would pull
    the censor out of later attempt-0 draws, truncating the refusal pattern
    the audit reconstructs — here the red-team question is detection
    coverage (is *every* targeted tx flagged?), not the ban machinery,
    which :class:`InvalidProofSpamScenario` and
    :class:`CartelWithholdScenario` already gate.
    """

    name = "censorship"

    def ledger_params(self) -> LedgerParams | None:
        return LedgerParams(ban_after_strikes=10_000)

    def stakes(self) -> list[tuple[str, int]]:
        return [("censor", 500), ("p1", 100), ("p2", 100), ("p3", 100)]

    def _targets(self, seed: bytes, txs: list[LatusTransaction]) -> frozenset[bytes]:
        assigner = StakeWeightedAssigner(seed)
        stakes = sorted(self.stakes())
        return frozenset(
            txs[i].txid
            for i in range(len(txs))
            if assigner.pick(stakes, 0, i, 0) == "censor"
        )

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        _, txs = payment_epoch(self._tx_count, seed)
        self._last_targets = self._targets(seed, txs)
        return [
            MarketProver(
                name="censor", stake=500, behaviour=CensorBehaviour(self._last_targets)
            ),
            MarketProver(name="p1", stake=100),
            MarketProver(name="p2", stake=100),
            MarketProver(name="p3", stake=100),
        ]

    def run(self, seed: bytes = b"adversarial", tx_count: int = 6) -> ScenarioReport:
        self._tx_count = tx_count
        return super().run(seed, tx_count)

    def specific_checks(self, report, dispatcher, deltas, seed):
        targets = self._last_targets
        account = dispatcher.ledger.accounts["censor"]
        return {
            "attack_staged": len(targets) > 0,
            "targets_flagged": set(report.censorship_suspected) == set(targets),
            "censorship_detected": deltas.get(
                "repro_market_censorship_suspected_total", 0
            ) == len(targets),
            "offender_struck_per_target": account.strikes_total == len(targets),
            "no_forger_fallback": not report.fallback_tasks,
        }


class CartelWithholdScenario(AdversarialScenario):
    """Three colluding provers withhold an entire merge level.

    Expected: the cartel is visible as multiple distinct refusers on one
    level, its members forfeit that level's rewards to the honest minority
    (or the forger), at least one member exhausts its strikes and is
    banned, and — run a second epoch — banned members are no longer
    assignable and earn nothing while banned.
    """

    name = "cartel-withhold"
    withheld_level = 1

    def ledger_params(self) -> LedgerParams | None:
        # collusion spreads strikes across members, so each individual stays
        # under the default threshold; the forger counters with a stricter
        # two-strike policy (the policy knob is exactly what LedgerParams
        # models — this is the red-team case for tightening it)
        return LedgerParams(ban_after_strikes=2)

    def stakes(self) -> list[tuple[str, int]]:
        return [("c0", 300), ("c1", 300), ("c2", 300), ("honest", 100)]

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        cartel = CartelBehaviour(level=self.withheld_level)
        return [
            MarketProver(name="c0", stake=300, behaviour=cartel),
            MarketProver(name="c1", stake=300, behaviour=cartel),
            MarketProver(name="c2", stake=300, behaviour=cartel),
            MarketProver(name="honest", stake=100),
        ]

    def run(self, seed: bytes = b"adversarial", tx_count: int = 8) -> ScenarioReport:
        return super().run(seed, tx_count)

    def specific_checks(self, report, dispatcher, deltas, seed):
        accounts = dispatcher.ledger.accounts
        banned = [n for n in ("c0", "c1", "c2") if accounts[n].banned_until > 0]
        checks = {
            "cartel_level_flagged": self.withheld_level in report.cartel_levels,
            "cartel_detected": deltas.get("repro_market_cartel_suspected_total", 0) > 0,
            "member_banned": len(banned) > 0,
            "members_struck": all(
                accounts[n].strikes_total > 0 for n in ("c0", "c1", "c2")
            ),
        }
        # second epoch: bans persist — banned members are out of the draw
        state2, txs2 = payment_epoch(4, seed + b"/epoch2")
        active = {name for name, _ in dispatcher.ledger.active_stakes()}
        report2 = dispatcher.prove_epoch(state2, txs2)
        checks["banned_unassignable_next_epoch"] = all(
            name not in active for name in banned
        )
        checks["banned_unpaid_next_epoch"] = all(
            report2.statement.reward_of(name) == 0 for name in banned
        )
        checks["next_epoch_proven"] = dispatcher.composer.verify(report2.proof)
        checks["next_epoch_conserves"] = report2.statement.conservation_ok
        return checks


class SubmissionLossScenario(AdversarialScenario):
    """An unreliable network drops a fraction of proof submissions.

    Not an attack by a prover — the red-team question is whether the
    market misattributes network loss as fraud.  Expected: dropped
    submissions strike (the forger cannot tell loss from laziness) but
    never slash, reassignment absorbs the losses, and the epoch completes
    bit-identically.
    """

    name = "submission-loss"

    def attack_provers(self, seed: bytes) -> list[MarketProver]:
        return [
            MarketProver(name=name, stake=stake) for name, stake in self.stakes()
        ]

    def fault_plan(self, seed: bytes) -> FaultPlan | None:
        return FaultPlan(seed=seed, drop_rate=0.3)

    def specific_checks(self, report, dispatcher, deltas, seed):
        return {
            "losses_observed": deltas.get(
                'repro_market_rejections_total{reason="transport"}', 0
            ) > 0,
            "reassignment_absorbed": report.reassignments > 0,
            "nobody_slashed": report.statement.total_slashed == 0
            and deltas.get("repro_market_slashes_total", 0) == 0,
            "rewards_still_paid": report.statement.total_paid > 0,
        }


#: Registry of every adversarial scenario, by report name.
SCENARIOS: dict[str, type[AdversarialScenario]] = {
    cls.name: cls
    for cls in (
        LazyProverScenario,
        InvalidProofSpamScenario,
        CensorshipScenario,
        CartelWithholdScenario,
        SubmissionLossScenario,
    )
}


def run_all(
    seed: bytes = b"adversarial", tx_count: int = 6
) -> list[ScenarioReport]:
    """Run the full red-team suite; every report should have ``passed``."""
    return [cls().run(seed=seed, tx_count=tx_count) for cls in SCENARIOS.values()]
