"""The Latus proof market: assignment, validation, payout, punishment.

:class:`MarketDispatcher` runs one epoch of distributed proving under the
arXiv:2103.13754 incentive scheme.  Its contract, and the property every
adversarial scenario gates on:

* **Soundness is free** — the final root proof is byte-identical to what a
  single honest prover produces (`EpochProver`-equivalent), no matter what
  the market participants do.  Provers can only delay or forfeit, never
  corrupt.
* **Liveness is the forger's** — when no market prover delivers a task
  (everyone refused, spammed or got banned mid-epoch), the forger proves it
  itself and takes that task's reward.  An attack can therefore redirect
  payouts but never stall the epoch.
* **Conservation is exact** — every epoch ends with an integer-exact
  ``pool_in == forger_reward + sum(prover_rewards)`` check; a violation
  raises :class:`~repro.errors.MarketError` (and counts in
  ``repro_market_conservation_checks_total{result="violated"}``).

The tasks are the nodes of :func:`~repro.snark.recursive.merge_plan`'s
tree — the bases, then each Merge step in level order — and the root is
the proof a single honest prover builds from the same plan.

Misbehaviour is modelled as a pluggable :class:`ProverBehaviour` deciding
per task whether to prove honestly, silently refuse, or submit garbage.
All randomness is seeded hashing (assignment draws, garbage bytes), so a
fixed seed and prover set replays a byte-identical schedule — the
determinism unit ``MarketEpochReport.schedule`` captures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro import observability
from repro.crypto.hashing import hash_bytes
from repro.encoding import Encoder
from repro.errors import MarketError
from repro.latus.market.assignment import StakeWeightedAssigner
from repro.latus.market.ledger import LedgerParams, ProverLedger
from repro.latus.market.rewards import RewardPool, RewardStatement, TreeTask, tree_tasks
from repro.latus.proofs import LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import LatusTransaction
from repro.network.faults import FaultPlan
from repro.snark.proving import PROOF_SIZE, Proof
from repro.snark.recursive import RecursiveComposer, TransitionProof, merge_plan

_REGISTRY = observability.registry()
_EPOCHS = _REGISTRY.counter(
    "repro_market_epochs_total", "market epochs proven"
).labels()
_TASKS = _REGISTRY.counter(
    "repro_market_tasks_total", "recursion-tree tasks dispatched", ("kind",)
)
_ASSIGNMENTS = _REGISTRY.counter(
    "repro_market_assignments_total", "task attempts assigned to provers"
).labels()
_REASSIGNMENTS = _REGISTRY.counter(
    "repro_market_reassignments_total",
    "tasks reassigned after a failed attempt",
).labels()
_REJECTIONS = _REGISTRY.counter(
    "repro_market_rejections_total",
    "submissions rejected by the forger",
    ("reason",),
)
_FEES = _REGISTRY.counter(
    "repro_market_fees_collected_total", "fee units collected into reward pools"
).labels()
_PAID = _REGISTRY.counter(
    "repro_market_rewards_paid_total", "reward units paid to market provers"
).labels()
_FALLBACKS = _REGISTRY.counter(
    "repro_market_forger_fallbacks_total",
    "tasks the forger proved itself after the market failed them",
).labels()
_CENSORSHIP = _REGISTRY.counter(
    "repro_market_censorship_suspected_total",
    "base tasks whose transaction proof was refused by an assigned prover",
).labels()
_CARTEL = _REGISTRY.counter(
    "repro_market_cartel_suspected_total",
    "merge levels refused by two or more distinct provers",
).labels()
_CONSERVATION = _REGISTRY.counter(
    "repro_market_conservation_checks_total",
    "epoch-end reward conservation checks",
    ("result",),
)

#: Identity the forger's own payouts are recorded under.
FORGER = "forger"

#: Schedule-entry outcome codes (canonical encoding of one attempt).
_OUTCOMES = {
    "accepted": 0,
    "no_submission": 1,
    "invalid_proof": 2,
    "transport": 3,
    "forger_fallback": 4,
}


@dataclass(frozen=True)
class MarketTask(TreeTask):
    """One recursion-tree node as presented to a prover's behaviour.

    Extends the reward-side :class:`TreeTask` coordinates with what a
    behaviour can condition on: the transaction id a base task proves
    (``b""`` for merges) and the task's stable position in the tree
    enumeration (``ordinal``, the index :class:`LazyBehaviour` draws on).
    """

    txid: bytes
    ordinal: int


class ProverBehaviour:
    """How a prover responds to an assigned task.

    :meth:`decide` returns ``"prove"`` (honest work), ``"refuse"`` (no
    submission) or ``"garbage"`` (an invalid proof).  Decisions must be
    pure in the task — determinism of the whole market depends on it.
    """

    def decide(self, task: MarketTask) -> str:
        raise NotImplementedError


class HonestBehaviour(ProverBehaviour):
    """Proves everything it is assigned."""

    def decide(self, task: MarketTask) -> str:
        return "prove"


class LazyBehaviour(ProverBehaviour):
    """Refuses a seeded fraction ``failure_rate`` of its tasks (all by default).

    Task ``n`` (its tree ordinal) is refused iff a hash of ``(seed, n)``
    lands under ``failure_rate`` — pure in the task, so the same seed
    produces the same laziness every run.
    """

    def __init__(self, failure_rate: float = 1.0, seed: bytes = b"pool-faults") -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise MarketError(f"failure_rate must be within [0, 1], got {failure_rate}")
        self.failure_rate = failure_rate
        self.seed = seed

    def decide(self, task: MarketTask) -> str:
        # the domain is part of the draw: renaming it changes every seeded schedule
        digest = hash_bytes(self.seed + task.ordinal.to_bytes(8, "little"), b"pool/fault")
        if int.from_bytes(digest[:8], "little") / float(1 << 64) < self.failure_rate:
            return "refuse"
        return "prove"


class SpamBehaviour(ProverBehaviour):
    """Submits garbage for every task (provable fraud: always slashed)."""

    def decide(self, task: MarketTask) -> str:
        return "garbage"


class CensorBehaviour(ProverBehaviour):
    """Proves everything except the base proofs of targeted transactions."""

    def __init__(self, targets: frozenset[bytes]) -> None:
        self.targets = frozenset(targets)

    def decide(self, task: MarketTask) -> str:
        if task.kind == "base" and task.txid in self.targets:
            return "refuse"
        return "prove"


class CartelBehaviour(ProverBehaviour):
    """Withholds an entire merge level (colluding provers share one)."""

    def __init__(self, level: int) -> None:
        self.level = level

    def decide(self, task: MarketTask) -> str:
        if task.kind == "merge" and task.level == self.level:
            return "refuse"
        return "prove"


@dataclass
class MarketProver:
    """One market participant: identity, bonded stake, behaviour."""

    name: str
    stake: int
    behaviour: ProverBehaviour = field(default_factory=HonestBehaviour)
    proofs_produced: int = 0
    proofs_rejected: int = 0


@dataclass(frozen=True)
class MarketEpochReport:
    """Everything one market epoch produced and observed."""

    proof: TransitionProof
    final_state: LatusState
    statement: RewardStatement
    base_tasks: int
    merge_tasks: int
    assignments: int
    reassignments: int
    #: Task keys the forger had to prove itself.
    fallback_tasks: tuple[tuple[int, int], ...]
    #: Base-task txids refused by at least one assigned prover.
    censorship_suspected: tuple[bytes, ...]
    #: Merge levels refused by two or more distinct provers.
    cartel_levels: tuple[int, ...]
    #: Every rejection as ``(prover, reason)`` in schedule order.
    rejections: tuple[tuple[str, str], ...]
    #: Canonical bytes of the full attempt schedule (the determinism unit:
    #: same seed + same prover set ⇒ byte-identical schedule).
    schedule: bytes


class MarketDispatcher:
    """Runs epochs of the Latus proof market over a prover set."""

    def __init__(
        self,
        provers: list[MarketProver],
        *,
        seed: bytes = b"latus-market",
        forger_share_bp: int = 2_000,
        base_subsidy: int = 0,
        ledger: ProverLedger | None = None,
        ledger_params: LedgerParams | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not provers:
            raise MarketError("a market needs at least one registered prover")
        names = [p.name for p in provers]
        if len(set(names)) != len(names):
            raise MarketError("prover names must be unique")
        if FORGER in names:
            raise MarketError(f"{FORGER!r} is reserved for the block forger")
        self.provers = {p.name: p for p in provers}
        self.seed = seed
        self.forger_share_bp = forger_share_bp
        self.base_subsidy = base_subsidy
        self.ledger = ledger if ledger is not None else ProverLedger(
            params=ledger_params if ledger_params is not None else LedgerParams()
        )
        for prover in provers:
            if prover.name not in self.ledger.accounts:
                self.ledger.register(prover.name, prover.stake)
        self.fault_plan = fault_plan
        self.assigner = StakeWeightedAssigner(seed)
        self.composer = RecursiveComposer(LatusTransitionSystem())
        self._submissions = 0

    # -- fees ----------------------------------------------------------------------

    def _fees_of(self, transitions: list[LatusTransaction]) -> int:
        """The epoch's fee income: per-tx (inputs − outputs) plus subsidy.

        MC-defined transaction types carry no fee fields; they contribute
        only the per-transition base subsidy.
        """
        fees = 0
        for tx in transitions:
            total_in = getattr(tx, "total_in", None)
            total_out = getattr(tx, "total_out", None)
            if total_in is not None and total_out is not None:
                fees += max(0, total_in - total_out)
        return fees + self.base_subsidy * len(transitions)

    # -- submissions ---------------------------------------------------------------

    def _garbage_proof(self, template: TransitionProof, task: MarketTask) -> TransitionProof:
        """A deterministic invalid submission: right shape, junk proof bytes."""
        material = (
            Encoder().var_bytes(self.seed).u32(task.level).u32(task.index).done()
        )
        junk = b"".join(
            hash_bytes(material + bytes([i]), b"market/garbage")
            for i in range(PROOF_SIZE // 32)
        )
        return replace(template, proof=Proof(data=junk))

    def _delivered(self, prover_name: str) -> bool:
        """Whether the network delivers this prover's next submission."""
        self._submissions += 1
        if self.fault_plan is None:
            return True
        return self.fault_plan.decide(prover_name, FORGER, float(self._submissions)).deliver

    # -- epoch ----------------------------------------------------------------------

    def prove_epoch(
        self, start_state: LatusState, transitions: list[LatusTransaction]
    ) -> MarketEpochReport:
        """Run one full market epoch over ``transitions``.

        Raises :class:`MarketError` only for protocol violations (broken
        conservation, empty epoch); participant misbehaviour is absorbed by
        reassignment and the forger fallback.
        """
        if not transitions:
            raise MarketError("empty epochs are proven by the heartbeat path")

        fees = self._fees_of(transitions)
        carried = self.ledger.take_pot()
        pool = RewardPool(fees + carried, self.forger_share_bp)
        tasks = tree_tasks(len(transitions))
        plan = merge_plan(len(transitions))
        task_rewards, dust = pool.allocate(tasks)
        _FEES.inc(fees)

        # the state chain is inherently sequential; compute it up front so
        # honest task results are pure functions of the task coordinates
        states = [start_state]
        for tx in transitions:
            states.append(self.composer.system.apply(tx, states[-1]))

        by_key = {
            t.key: MarketTask(
                **asdict(t),
                txid=transitions[t.index].txid if t.kind == "base" else b"",
                ordinal=ordinal,
            )
            for ordinal, t in enumerate(tasks)
        }

        epoch_rewards: dict[str, int] = {}
        epoch_slashed: dict[str, int] = {}
        rejections: list[tuple[str, str]] = []
        schedule: list[bytes] = []
        base_refusals: set[bytes] = set()
        merge_refusers: dict[int, set[str]] = {}
        fallbacks: list[tuple[int, int]] = []
        counters = {"assignments": 0, "reassignments": 0}

        def run_task(task: MarketTask, prove_honest) -> TransitionProof:
            """Dispatch one task until a valid submission arrives.

            ``prove_honest`` computes the (deterministic) honest result;
            it is evaluated lazily and at most once — every honest prover
            produces byte-identical proofs, so one evaluation stands for
            whichever prover delivered it.
            """
            _TASKS.labels(kind=task.kind).inc()
            honest: TransitionProof | None = None
            excluded: set[str] = set()
            for attempt in range(3 * len(self.provers) + 3):
                try:
                    name = self.assigner.pick(
                        self.ledger.active_stakes(),
                        task.level,
                        task.index,
                        attempt,
                        excluded=excluded,
                    )
                except MarketError:
                    break  # nobody left: forger fallback below
                counters["assignments"] += 1
                _ASSIGNMENTS.inc()
                if attempt > 0:
                    counters["reassignments"] += 1
                    _REASSIGNMENTS.inc()
                prover = self.provers[name]
                action = prover.behaviour.decide(task)
                reason = None
                if action == "prove":
                    if honest is None:
                        honest = prove_honest()
                    if not self._delivered(name):
                        reason = "transport"
                elif action == "garbage":
                    if honest is None:
                        honest = prove_honest()
                    candidate = self._garbage_proof(honest, task)
                    delivered = self._delivered(name)
                    if not delivered:
                        reason = "transport"
                    elif not self.composer.verify(candidate):
                        reason = "invalid_proof"
                else:  # refuse
                    reason = "no_submission"
                if reason is None:
                    prover.proofs_produced += 1
                    reward = task_rewards[task.key]
                    epoch_rewards[name] = epoch_rewards.get(name, 0) + reward
                    self.ledger.credit(name, reward)
                    _PAID.inc(reward)
                    schedule.append(self._schedule_entry(task, attempt, name, "accepted"))
                    assert honest is not None
                    return honest
                # rejection path: strike, maybe slash/ban, exclude, retry
                prover.proofs_rejected += 1
                outcome = self.ledger.note_rejection(name, reason)
                if outcome.slashed:
                    epoch_slashed[name] = epoch_slashed.get(name, 0) + outcome.slashed
                rejections.append((name, reason))
                _REJECTIONS.labels(reason=reason).inc()
                schedule.append(self._schedule_entry(task, attempt, name, reason))
                if reason == "no_submission":
                    if task.kind == "base":
                        if task.txid not in base_refusals:
                            base_refusals.add(task.txid)
                            _CENSORSHIP.inc()
                    else:
                        refusers = merge_refusers.setdefault(task.level, set())
                        if name not in refusers:
                            refusers.add(name)
                            if len(refusers) == 2:
                                _CARTEL.inc()
                excluded.add(name)
            # liveness floor: the forger proves the task and takes its reward
            fallbacks.append(task.key)
            _FALLBACKS.inc()
            schedule.append(self._schedule_entry(task, -1, FORGER, "forger_fallback"))
            if honest is None:
                honest = prove_honest()
            return honest

        # --- level 0: base proofs, mirroring EpochProver's serial chain
        proofs: dict[tuple[int, int], TransitionProof] = {}
        for index in range(len(transitions)):
            proofs[(0, index)] = run_task(
                by_key[(0, index)],
                lambda i=index: self.composer.prove_base(states[i], transitions[i])[0],
            )

        # --- merge steps, in the plan's level order
        for step in plan:
            left, right = proofs.pop(step.left_key), proofs.pop(step.right_key)
            proofs[step.key] = run_task(
                by_key[step.key], lambda l=left, r=right: self.composer.merge(l, r)
            )
        (root,) = proofs.values()

        # --- payout statement + exact conservation gate
        fallback_reward = sum(task_rewards[key] for key in fallbacks)
        statement = RewardStatement(
            epoch=self.ledger.epoch,
            fees_in=fees,
            carried_in=carried,
            forger_share_bp=self.forger_share_bp,
            forger_reward=pool.forger_cut + dust + fallback_reward,
            rewards=tuple(sorted(epoch_rewards.items())),
            slashed=tuple(sorted(epoch_slashed.items())),
            slash_pot_out=self.ledger.slash_pot,
        )
        if not statement.conservation_ok:
            _CONSERVATION.labels(result="violated").inc()
            raise MarketError(
                f"reward conservation violated: pool_in={statement.pool_in} != "
                f"forger {statement.forger_reward} + paid {statement.total_paid}"
            )
        _CONSERVATION.labels(result="ok").inc()
        _EPOCHS.inc()

        cartel_levels = tuple(
            sorted(lvl for lvl, who in merge_refusers.items() if len(who) >= 2)
        )
        report = MarketEpochReport(
            proof=root,
            final_state=states[-1],
            statement=statement,
            base_tasks=len(transitions),
            merge_tasks=len(plan),
            assignments=counters["assignments"],
            reassignments=counters["reassignments"],
            fallback_tasks=tuple(fallbacks),
            censorship_suspected=tuple(sorted(base_refusals)),
            cartel_levels=cartel_levels,
            rejections=tuple(rejections),
            schedule=b"".join(schedule),
        )
        self.ledger.advance_epoch()
        return report

    def _schedule_entry(
        self, task: MarketTask, attempt: int, prover: str, outcome: str
    ) -> bytes:
        return (
            Encoder()
            .u8(0 if task.kind == "base" else 1)
            .u32(task.level)
            .u32(task.index)
            .u32(attempt & 0xFFFFFFFF)
            .text(prover)
            .u8(_OUTCOMES[outcome])
            .done()
        )
