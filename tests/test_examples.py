"""Smoke tests: the fast examples must run end to end.

The examples are the project's living documentation; these tests keep them
from rotting.  Only the quick ones run here.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "alice now holds 1000000" in out
        assert "payout address holds" in out
        assert "250000" in out

    def test_independent_auditor(self, capsys):
        out = run_example("independent_auditor", capsys)
        assert "CLEAN" in out
        assert "one flipped byte" in out

    def test_ceased_sidechain_recovery(self, capsys):
        out = run_example("ceased_sidechain_recovery", capsys)
        assert "status = ceased" in out
        assert "carol recovered 80000" in out
        assert "NullifierReused" in out

    def test_federated_sidechain(self, capsys):
        out = run_example("federated_sidechain", capsys)
        assert "bob holds 3000" in out
        assert "never learned" in out

    def test_decentralized_forgers(self, capsys):
        out = run_example("decentralized_forgers", capsys)
        assert "all nodes convergent (0 resyncs)" in out
        assert "certified on the MC: [0, 1, 2, 3, 4]" in out

    def test_certificate_latency_study(self, capsys):
        out = run_example("certificate_latency_study", capsys)
        # a window of 4 blocks absorbs 1.5 blocks of delivery latency, 1 does not
        assert "         4          1.5   active      4" in out
        assert "         1          1.5   ceased      0" in out
