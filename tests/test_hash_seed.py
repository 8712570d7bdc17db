"""Nothing the protocol commits to depends on Python's string-hash seed.

Byte-keyed sets and dicts iterate in an order ``PYTHONHASHSEED`` chooses.
One short Latus run — four forward transfers, a payment and three withdrawals,
two epochs, the last certificate adopted by the mainchain — is repeated in
fresh interpreters under two seeds; the state digest, every certificate's
bytes and the mainchain tip must come out the same.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from repro.crypto.keys import KeyPair
from repro.scenarios import ZendooHarness

alice, bob, carol, dave = (KeyPair.from_seed(s) for s in ("alice", "bob", "carol", "dave"))
harness = ZendooHarness()
sc = harness.create_sidechain("hash-seed", epoch_len=3, submit_len=2)
for owner in (alice, bob, carol, dave):
    harness.forward_transfer(sc, owner, 5_000)
harness.run_epochs(sc, 1)
harness.wallet(sc, alice).pay(bob.address, 1_000)
for owner in (bob, carol, dave):
    harness.wallet(sc, owner).withdraw(owner.address, 700)
harness.run_epochs(sc, 1)
node = sc.node
last = len(node.certificates) - 1
adopted = harness.mc.state.cctp.adopted_certificate(sc.ledger_id, last)
print(json.dumps({
    "digest": hex(node.state.digest()),
    "certificates": [c.encode().hex() for c in node.certificates],
    "adopted": adopted.encode().hex(),
    "bt_count": len(adopted.bt_list),
    "mc_tip": harness.mc.chain.tip.hash.hex(),
}))
"""


def run_under(seed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "REPRO_"))}
    env.update(PYTHONPATH="src", PYTHONHASHSEED=seed)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
    )
    return json.loads(out.stdout)


def test_latus_epoch_is_identical_under_two_hash_seeds():
    first, second = run_under("0"), run_under("1")
    assert len(first["certificates"]) == 2
    assert first["adopted"] == first["certificates"][-1]
    assert first["bt_count"] == 6  # three receivers, whose order is committed
    assert first == second
