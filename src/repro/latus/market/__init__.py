"""The Latus proof market (arXiv:2103.13754, "Latus Incentive Scheme").

The paper's §5.4.1 sketch is "random assignment + a reward per valid
submission"; this package is the follow-up paper's full mechanism for it:

* :mod:`~repro.latus.market.rewards` — fee-funded pools, forger/prover
  split, position-weighted per-node payouts, exact integer conservation;
* :mod:`~repro.latus.market.assignment` — stake-weighted deterministic
  task assignment with offender-excluding reassignment;
* :mod:`~repro.latus.market.ledger` — persistent prover accounts:
  strikes, slashing, bans carried across epochs;
* :mod:`~repro.latus.market.dispatcher` — the market itself, plus the
  :class:`ProverBehaviour` family the adversarial scenarios use.
"""

from repro.latus.market.assignment import StakeWeightedAssigner
from repro.latus.market.dispatcher import (
    FORGER,
    CartelBehaviour,
    CensorBehaviour,
    HonestBehaviour,
    LazyBehaviour,
    MarketDispatcher,
    MarketEpochReport,
    MarketProver,
    MarketTask,
    ProverBehaviour,
    SpamBehaviour,
)
from repro.latus.market.ledger import (
    LedgerParams,
    ProverAccount,
    ProverLedger,
    RejectionOutcome,
)
from repro.latus.market.rewards import (
    BP_DENOM,
    RewardPool,
    RewardStatement,
    TreeTask,
    tree_tasks,
)

__all__ = [
    "BP_DENOM",
    "FORGER",
    "CartelBehaviour",
    "CensorBehaviour",
    "HonestBehaviour",
    "LazyBehaviour",
    "LedgerParams",
    "MarketDispatcher",
    "MarketEpochReport",
    "MarketProver",
    "MarketTask",
    "ProverAccount",
    "ProverBehaviour",
    "ProverLedger",
    "RejectionOutcome",
    "RewardPool",
    "RewardStatement",
    "SpamBehaviour",
    "StakeWeightedAssigner",
    "TreeTask",
    "tree_tasks",
]
