"""Scenario orchestration: full-deployment harness, workload generators and
the adversarial proof-market red-team suite."""

from repro.scenarios.adversarial import (
    SCENARIOS,
    AdversarialScenario,
    CartelWithholdScenario,
    CensorshipScenario,
    InvalidProofSpamScenario,
    LazyProverScenario,
    ScenarioReport,
    SubmissionLossScenario,
    run_all,
)
from repro.scenarios.harness import (
    SidechainHandle,
    ZendooHarness,
    latus_sidechain_config,
)
from repro.scenarios.workload import Account, PaymentWorkload, make_accounts

__all__ = [
    "SCENARIOS",
    "Account",
    "AdversarialScenario",
    "CartelWithholdScenario",
    "CensorshipScenario",
    "InvalidProofSpamScenario",
    "LazyProverScenario",
    "PaymentWorkload",
    "ScenarioReport",
    "SidechainHandle",
    "SubmissionLossScenario",
    "ZendooHarness",
    "latus_sidechain_config",
    "make_accounts",
    "run_all",
]
