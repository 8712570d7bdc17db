"""Fee-funded reward pools for the Latus proof market (arXiv:2103.13754).

The Latus Incentive Scheme paper replaces §5.4.1's flat "reward per valid
submission" with a *fee split*: the transaction fees of an epoch fund one
reward pool, the block forger keeps a fixed share for assembling the block
and paying the certificate submission, and the remainder is divided among
the provers of the recursion tree's nodes **position-weighted** — a node's
payout is proportional to the number of base transitions beneath it
(``span``), so a Merge proof near the root, which vouches for the whole
epoch, pays more than a leaf Base proof.  The tree is the one the provers
build: :func:`~repro.snark.recursive.merge_plan` lays out both.

Everything here is exact integer arithmetic.  The division dust of the
position-weighted split goes to the forger, so the conservation identity

    ``pool_in == forger_reward + sum(prover_rewards)``

holds to the unit; :class:`~repro.latus.market.dispatcher.MarketDispatcher`
gates every epoch on it (``repro_market_conservation_checks_total``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.encoding import Encoder
from repro.errors import MarketError
from repro.snark.recursive import merge_plan

#: Basis-point denominator of the forger's share.
BP_DENOM = 10_000


@dataclass(frozen=True)
class TreeTask:
    """One node of the recursion tree, as a unit of paid work.

    ``kind`` is ``"base"`` or ``"merge"``; ``level`` 0 for bases, 1.. for
    merge levels; ``index`` the node's position within its level; ``span``
    the number of base transitions the node's proof covers (its reward
    weight).
    """

    kind: str
    level: int
    index: int
    span: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.level, self.index)


def tree_tasks(base_count: int) -> list[TreeTask]:
    """Enumerate the recursion tree for ``base_count`` transitions.

    The bases, then one merge task per :func:`merge_plan` step: an odd tail
    carries upward *without* producing a task (nobody re-proves a carried
    proof, so nobody is paid twice for it).
    """
    if base_count <= 0:
        raise MarketError("an epoch needs at least one transition to prove")
    tasks = [TreeTask(kind="base", level=0, index=i, span=1) for i in range(base_count)]
    spans = {task.key: 1 for task in tasks}
    for step in merge_plan(base_count):
        spans[step.key] = spans[step.left_key] + spans[step.right_key]
        tasks.append(
            TreeTask(kind="merge", level=step.level, index=step.index, span=spans[step.key])
        )
    return tasks


class RewardPool:
    """Splits one epoch's fee income between the forger and the provers.

    ``pool_in`` is the total funding (transaction fees plus anything
    carried in, e.g. the previous epoch's slash pot); ``forger_share_bp``
    the forger's cut in basis points.  :meth:`allocate` computes the
    position-weighted per-task rewards; the rounding dust is returned so
    the caller can hand it to the forger and keep conservation exact.
    """

    def __init__(self, pool_in: int, forger_share_bp: int) -> None:
        if pool_in < 0:
            raise MarketError(f"reward pool cannot be negative, got {pool_in}")
        if not 0 <= forger_share_bp <= BP_DENOM:
            raise MarketError(
                f"forger share must be within [0, {BP_DENOM}] bp, got {forger_share_bp}"
            )
        self.pool_in = pool_in
        self.forger_share_bp = forger_share_bp
        self.forger_cut = pool_in * forger_share_bp // BP_DENOM
        self.prover_pool = pool_in - self.forger_cut

    def allocate(self, tasks: Sequence[TreeTask]) -> tuple[dict[tuple[int, int], int], int]:
        """Per-task rewards keyed by ``(level, index)`` plus the dust.

        ``reward(task) = prover_pool * task.span // total_weight`` — integer
        floor division, with ``dust = prover_pool - sum(rewards)`` returned
        separately.  ``sum(rewards) + dust == prover_pool`` always.
        """
        if not tasks:
            raise MarketError("cannot allocate rewards over an empty task tree")
        total_weight = sum(task.span for task in tasks)
        rewards = {
            task.key: self.prover_pool * task.span // total_weight for task in tasks
        }
        dust = self.prover_pool - sum(rewards.values())
        return rewards, dust


@dataclass(frozen=True)
class RewardStatement:
    """The itemized, canonical payout record of one market epoch.

    ``rewards`` and ``slashed`` are name-sorted tuples so two identically
    seeded epochs produce byte-identical :meth:`encode` output — the
    determinism unit the property tests and adversarial scenarios gate on.
    """

    epoch: int
    fees_in: int
    carried_in: int
    forger_share_bp: int
    forger_reward: int
    rewards: tuple[tuple[str, int], ...]
    slashed: tuple[tuple[str, int], ...]
    #: Slashed stake accumulated for the *next* epoch's pool (not part of
    #: this epoch's conservation identity — it funds the following one).
    slash_pot_out: int

    @property
    def pool_in(self) -> int:
        """Total funding of this epoch's pool."""
        return self.fees_in + self.carried_in

    @property
    def total_paid(self) -> int:
        """Sum of all prover rewards."""
        return sum(amount for _, amount in self.rewards)

    @property
    def total_slashed(self) -> int:
        """Sum of all stake slashed this epoch."""
        return sum(amount for _, amount in self.slashed)

    @property
    def conservation_ok(self) -> bool:
        """The exact-conservation identity: fees in == rewards + forger out."""
        return self.pool_in == self.forger_reward + self.total_paid

    def reward_of(self, name: str) -> int:
        """One prover's reward (0 when absent)."""
        for prover, amount in self.rewards:
            if prover == name:
                return amount
        return 0

    def slashed_of(self, name: str) -> int:
        """One prover's slashed stake (0 when absent)."""
        for prover, amount in self.slashed:
            if prover == name:
                return amount
        return 0

    def encode(self) -> bytes:
        """Canonical byte form (the byte-identical determinism unit)."""
        enc = (
            Encoder()
            .u32(self.epoch)
            .u64(self.fees_in)
            .u64(self.carried_in)
            .u32(self.forger_share_bp)
            .u64(self.forger_reward)
            .u64(self.slash_pot_out)
        )
        enc.sequence(
            self.rewards, lambda e, item: e.text(item[0]).u64(item[1])
        )
        enc.sequence(
            self.slashed, lambda e, item: e.text(item[0]).u64(item[1])
        )
        return enc.done()

    def items(self) -> Iterator[tuple[str, int]]:
        """Iterate ``(prover, reward)`` pairs in canonical order."""
        return iter(self.rewards)
