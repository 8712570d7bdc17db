"""Stake-weighted, incentive-compatible task assignment (arXiv:2103.13754).

The incentive paper's assignment rule: a recursion-tree node is assigned to
a registered prover with probability proportional to the prover's stake,
from randomness both sides can recompute — here, as everywhere in the
reproduction, a hash of the epoch seed and the task coordinates stands in
for the randomness beacon.  The properties that make the rule
incentive-compatible carry over directly:

* **Unpredictable but verifiable** — nobody can grind their way into a
  specific (profitable) node, and anyone can recheck who was supposed to
  prove what;
* **Identity-blind payouts** — a node's reward depends only on its tree
  position (see :mod:`repro.latus.market.rewards`), never on who proved
  it, so there is nothing to gain by trading assignments;
* **Offender-excluding reassignment** — a prover that failed a task is
  excluded from that task's retries (``excluded``), so rejecting work can
  never recapture the same reward later.

Draws walk the eligible provers in sorted-name order with cumulative stake
ranges — the same construction as
:meth:`repro.latus.consensus.stake.StakeDistribution.owner_at` uses for
slot leaders — so a fixed seed reproduces a byte-identical schedule.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.crypto.hashing import hash_bytes
from repro.encoding import Encoder
from repro.errors import MarketError

_DRAW_BYTES = 8


class StakeWeightedAssigner:
    """Deterministic stake-weighted choice of a prover for one task attempt."""

    def __init__(self, seed: bytes) -> None:
        self.seed = seed

    def draw(self, level: int, index: int, attempt: int) -> int:
        """The raw uniform draw for a task attempt (pure in the inputs)."""
        material = (
            Encoder().var_bytes(self.seed).u32(level).u32(index).u32(attempt).done()
        )
        digest = hash_bytes(material, b"market/assign")
        return int.from_bytes(digest[:_DRAW_BYTES], "little")

    def pick(
        self,
        stakes: Sequence[tuple[str, int]],
        level: int,
        index: int,
        attempt: int,
        excluded: Iterable[str] = (),
    ) -> str:
        """The prover assigned to ``(level, index)`` on ``attempt``.

        ``stakes`` is the eligible population as ``(name, stake)`` pairs;
        entries named in ``excluded`` or holding no stake are skipped.
        Raises :class:`MarketError` when nobody is eligible — the caller's
        cue to fall back to the forger's own prover (liveness must never
        depend on market participants).
        """
        shunned = set(excluded)
        eligible = sorted(
            (name, stake)
            for name, stake in stakes
            if stake > 0 and name not in shunned
        )
        total = sum(stake for _, stake in eligible)
        if total <= 0:
            raise MarketError(
                f"no eligible prover for task (level={level}, index={index})"
            )
        point = self.draw(level, index, attempt) % total
        cumulative = 0
        for name, stake in eligible:
            cumulative += stake
            if point < cumulative:
                return name
        raise AssertionError("unreachable: point below total but not matched")
