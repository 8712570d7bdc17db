"""Shared builders for the benchmark harness.

Every benchmark regenerates one artifact of the paper (see DESIGN.md §5 and
EXPERIMENTS.md).  Scenario construction is kept here so individual bench
modules stay focused on the measured operation.
"""

from __future__ import annotations

import pytest

from repro import observability
from repro.crypto import backend as field_backend
from repro.crypto.keys import KeyPair
from repro.observability import export
from repro.scenarios import ZendooHarness, make_accounts


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        choices=list(field_backend.backend_names()),
        help=(
            "restrict backend-parameterized benchmarks to one field backend "
            "(default: sweep every available backend)"
        ),
    )


@pytest.fixture(
    params=list(field_backend.backend_names()),
    ids=lambda name: f"backend={name}",
)
def field_backend_name(request) -> str:
    """The ``--backend`` axis: yields each backend with it activated.

    Without ``--backend`` the fixture sweeps all registered backends,
    skipping the ones whose optional dependency is missing; with it, only
    the chosen backend runs (still skip-not-fail when unavailable).
    """
    name = request.param
    chosen = request.config.getoption("--backend")
    if chosen is not None and name != chosen:
        pytest.skip(f"--backend={chosen} deselects '{name}'")
    if not field_backend.is_available(name):
        pytest.skip(f"field backend '{name}' unavailable")
    with field_backend.use_backend(name):
        yield name


def mimc_counters() -> dict[str, int]:
    """The registry's ``repro_mimc_*`` counters (subtract two reads for a delta)."""
    flat = export.flatten(observability.registry())
    return {k: int(v) for k, v in flat.items() if k.startswith("repro_mimc_")}


def mimc_delta(before: dict[str, int]) -> dict[str, int]:
    """Counter movement since ``before = mimc_counters()``."""
    return {k: v - before[k] for k, v in mimc_counters().items()}


@pytest.fixture(scope="session")
def bench_keys() -> dict[str, KeyPair]:
    names = ["alice", "bob", "carol", "miner", "dest"]
    return {name: KeyPair.from_seed(f"bench/{name}") for name in names}


def build_funded_sidechain(
    epoch_len: int = 4,
    submit_len: int = 2,
    fund: int = 1_000_000,
    seed: str = "bench",
    accounts: int = 0,
):
    """A harness with one Latus sidechain past its first certified epoch."""
    harness = ZendooHarness(miner_seed=f"{seed}/miner")
    harness.mine(2)
    sc = harness.create_sidechain(seed, epoch_len=epoch_len, submit_len=submit_len)
    alice = KeyPair.from_seed(f"{seed}/alice")
    harness.forward_transfer(sc, alice, fund)
    users = make_accounts(accounts, prefix=f"{seed}/user") if accounts else []
    for user in users:
        harness.forward_transfer(sc, user.keypair, fund // max(1, accounts))
    harness.run_epochs(sc, 1)
    return harness, sc, alice, users
