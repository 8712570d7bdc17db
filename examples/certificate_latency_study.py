#!/usr/bin/env python3
"""Network-latency study: how long may certificate delivery take?

Uses the discrete-event network simulator to model a sidechain whose
certificate submissions traverse a lossy/laggy network to the mainchain
mempool, and sweeps the ``submit_len`` window against delivery latency —
the deployment question behind Def. 4.2's ceasing rule ("we also explore
the possibility to provide more flexibility for withdrawal certificate
submission").

Run:  python examples/certificate_latency_study.py
"""

from repro.errors import ZendooError
from repro.mainchain.transaction import CertificateTx
from repro.network import LatencyModel, NetworkSimulator
from repro.scenarios import ZendooHarness

#: Seconds of simulated time per mainchain block.
BLOCK_INTERVAL = 150.0


def run_deployment(submit_len: int, latency_blocks: float) -> tuple[str, int]:
    """One deployment: certificates arrive ``latency_blocks`` blocks late.

    Returns the final sidechain status and the number of adopted
    certificates.
    """
    harness = ZendooHarness(miner_seed=f"latency/{submit_len}/{latency_blocks}")
    harness.mine(2)
    sc = harness.create_sidechain(
        f"latency-{submit_len}-{latency_blocks}", epoch_len=5, submit_len=submit_len
    )
    sc.node.auto_submit_certificates = False

    sim = NetworkSimulator(
        LatencyModel(
            base=latency_blocks * BLOCK_INTERVAL,
            jitter=0.1 * BLOCK_INTERVAL,
            seed=b"latency-study",
        )
    )
    sim.register("mc", lambda src, cert: _deliver(harness, cert))
    sim.register("sc", lambda src, msg: None)

    submitted = 0
    for _ in range(25):
        harness.mine(1)
        sim.run(until=sim.clock + BLOCK_INTERVAL)
        for cert in sc.node.certificates[submitted:]:
            sim.send("sc", "mc", cert)
            submitted += 1
    entry = harness.mc.state.cctp.entry(sc.ledger_id)
    return entry.status.value, len(entry.certificates)


def _deliver(harness, cert) -> None:
    try:
        harness.mc.submit_transaction(CertificateTx(wcert=cert))
    except ZendooError:
        pass  # duplicate or late: the mempool refused it


def main() -> None:
    print("=== certificate delivery latency vs. submission window ===\n")
    print(f"{'submit_len':>10} {'latency(blk)':>12} {'status':>8} {'certs':>6}")
    for submit_len in (1, 2, 4):
        for latency in (0.2, 1.5, 3.0):
            status, certs = run_deployment(submit_len, latency)
            print(f"{submit_len:>10} {latency:>12.1f} {status:>8} {certs:>6}")
    print(
        "\nreading: a sidechain survives while its certificate latency stays "
        "below the submission window; past it, the deterministic ceasing rule "
        "fires regardless of how healthy the sidechain itself is."
    )


if __name__ == "__main__":
    main()
