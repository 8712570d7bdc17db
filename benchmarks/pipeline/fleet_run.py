"""The ``mc_fleet`` workload: one mainchain, a thousand certifying sidechains.

No Latus node runs here.  The sidechains are stand-ins that do exactly what
the mainchain can see of a sidechain: every epoch each one receives a forward
transfer and submits one SNARK-proved withdrawal certificate carrying
backward transfers.  All of them share one epoch schedule, so every epoch's
certificates arrive in one submission window.  Building and proving the
certificates is the sidechains' work and counts as load generation; the run
clock sees the mainchain only — mempool, template assembly, certificate
verification, the CCTP state, the commitment tree, payout maturity.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.bootstrap import SidechainConfig
from repro.core.epochs import EpochSchedule
from repro.core.transfers import (
    BackwardTransfer,
    ForwardTransfer,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto.keys import KeyPair
from repro.errors import ZendooError
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import CertificateTx, SidechainDeclarationTx
from repro.mainchain.utxo import Outpoint
from repro.snark import proving
from repro.snark.circuit import Circuit

from benchmarks.pipeline.clock import RunClock
from benchmarks.pipeline.loadgen import McWallet

_COIN = 100_000_000


class _FleetCertCircuit(Circuit):
    """The stand-in sidechains' certificate statement: public inputs only."""

    circuit_id = "bench/fleet-wcert"

    def synthesize(self, builder, public_input, witness):
        builder.alloc_publics(public_input)


class FleetRun:
    def __init__(self, params: dict, seed: int, clock: RunClock) -> None:
        self.p = params
        self.clock = clock
        self._rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {
            "epoch_close_s": [],
            "transfer_roundtrip_s": [],
            "mc_cert_block_ms": [],
        }
        self.mempool_depth_max = 0
        self.first_timed = 1
        self.last_timed = params["epochs"]
        #: ledger id -> forward-transferred / withdrawn so far
        self.deposited: dict[bytes, int] = {}
        self.withdrawn: dict[bytes, int] = {}
        #: epoch -> that epoch's certificates, in submission order
        self.certificates: dict[int, list[WithdrawalCertificate]] = {}
        #: epoch -> run clock when its forward transfers were submitted
        self._ft_submitted: dict[int, float] = {}
        self._window_opened: dict[int, float] = {}

    # -- construction ------------------------------------------------------------

    def setup(self) -> None:
        """Mainchain, registration of the fleet and the cold epoch 0."""
        p = self.p
        self.node = MainchainNode(
            MainchainParams(
                pow_zero_bits=4,
                coinbase_maturity=1,
                max_block_transactions=p["certs_per_block"] + 1,
            )
        )
        self.miner = KeyPair.from_seed("bench/fleet-miner")
        self.wallet = McWallet(self.miner, coinbase_maturity=1)
        self.pk, vk = proving.setup(_FleetCertCircuit())
        self._mine()
        self._mine()
        # one coin per forward-transfer transaction of an epoch, recycled as change
        ft_txs_per_epoch = -(-p["sidechains"] // p["fts_per_tx"])
        split = self.wallet.transfer(self.node.height + 1, [], (ft_txs_per_epoch, _COIN))
        self.node.submit_transaction(split)

        # the split shares the first block with the declarations
        per_block = p["certs_per_block"] - 1
        decl_blocks = -(-p["sidechains"] // per_block)
        start_block = self.node.height + decl_blocks + 2
        self.schedule = EpochSchedule(start_block, p["epoch_len"], p["submit_len"])
        self.ledgers = [derive_ledger_id(f"bench/fleet/{i}") for i in range(p["sidechains"])]
        for offset in range(0, len(self.ledgers), per_block):
            for ledger_id in self.ledgers[offset : offset + per_block]:
                self.node.submit_transaction(
                    SidechainDeclarationTx(
                        config=SidechainConfig(
                            ledger_id=ledger_id,
                            start_block=start_block,
                            epoch_len=p["epoch_len"],
                            submit_len=p["submit_len"],
                            wcert_vk=vk,
                        )
                    )
                )
            self._mine()
        while self.node.height < start_block - 1:
            self._mine()
        for ledger_id in self.ledgers:
            self.deposited[ledger_id] = 0
            self.withdrawn[ledger_id] = 0
        self._epoch(0)

    def _mine(self):
        block = self.node.mine_block(self.miner.address)
        self.wallet.note_block(block)
        return block

    # -- load generation -----------------------------------------------------------

    def _forward_transfers(self) -> list:
        """This epoch's FT transactions: one transfer per sidechain."""
        rng, p = self._rng, self.p
        txs = []
        for offset in range(0, len(self.ledgers), p["fts_per_tx"]):
            transfers = []
            for ledger_id in self.ledgers[offset : offset + p["fts_per_tx"]]:
                amount = rng.randrange(8_000, 16_000)
                self.deposited[ledger_id] += amount
                transfers.append(ForwardTransfer(ledger_id, b"fleet", amount))
            txs.append(self.wallet.transfer(self.node.height + 1, transfers))
        return txs

    def _certificates(self, epoch: int) -> list[WithdrawalCertificate]:
        """One proved certificate per sidechain for ``epoch`` (just ended)."""
        rng, p = self._rng, self.p
        h_prev = (
            self.node.state.block_hash_at(self.schedule.last_height(epoch - 1))
            if epoch
            else b"\x00" * 32
        )
        h_last = self.node.state.block_hash_at(self.schedule.last_height(epoch))
        placeholder = proving.Proof(b"\x00" * proving.PROOF_SIZE)
        out = []
        for index, ledger_id in enumerate(self.ledgers):
            balance = self.deposited[ledger_id] - self.withdrawn[ledger_id]
            share = balance // (2 * p["bts_per_cert"])
            bts = tuple(
                BackwardTransfer(
                    receiver_addr=hashlib.blake2b(
                        b"%d/%d/%d" % (epoch, index, k), digest_size=32
                    ).digest(),
                    amount=share - rng.randrange(0, 16),
                )
                for k in range(p["bts_per_cert"])
            )
            self.withdrawn[ledger_id] += sum(bt.amount for bt in bts)
            draft = WithdrawalCertificate(ledger_id, epoch, 1, bts, (), placeholder)
            proof = proving.prove(self.pk, draft.public_input(h_prev, h_last), ())
            out.append(WithdrawalCertificate(ledger_id, epoch, 1, bts, (), proof))
        return out

    # -- the loop ---------------------------------------------------------------------

    def run(self) -> None:
        for epoch in range(self.first_timed, self.last_timed + 1):
            self._epoch(epoch)
        # certificates of the last epoch, up to the block their payouts mature in
        self._epoch(self.last_timed + 1, blocks=self.p["submit_len"] + 1, transfers=False)

    def _epoch(self, epoch: int, blocks: int | None = None, transfers: bool = True) -> None:
        for index in range(blocks or self.p["epoch_len"]):
            self._step(epoch, index, transfers)

    def _step(self, epoch: int, index: int, transfers: bool) -> None:
        clock = self.clock
        clock.operation(epoch, index)
        txs: list = []
        if index == 0:
            with clock.loadgen():
                # certificates withdraw from what earlier epochs deposited, but
                # queue behind this epoch's transfers so those are mined first
                if epoch:
                    self.certificates[epoch - 1] = self._certificates(epoch - 1)
                if transfers:
                    txs.extend(self._forward_transfers())
                if epoch:
                    txs.extend(CertificateTx(wcert=c) for c in self.certificates[epoch - 1])
        started = clock.now()
        if index == 0:
            self._ft_submitted[epoch] = started
            self._window_opened[epoch - 1] = started
        for tx in txs:
            self.attempted += 1
            try:
                self.node.submit_transaction(tx)
            except ZendooError:
                self.failed += 1
        self.mempool_depth_max = max(self.mempool_depth_max, len(self.node.mempool))
        before = clock.now()
        block = self.node.mine_block(self.miner.address)
        ended = clock.now()

        # -- observe (reads only)
        with clock.loadgen():
            self.wallet.note_block(block)
        if not clock.running:
            return
        carried = sum(1 for tx in block.transactions if isinstance(tx, CertificateTx))
        if carried == self.p["certs_per_block"]:
            self.samples["mc_cert_block_ms"].append((ended - before) * 1e3)
        closing = epoch - 1
        if carried and closing in self._window_opened and self._all_adopted(closing):
            self.samples["epoch_close_s"].append(ended - self._window_opened.pop(closing))
        # payouts of the certificates adopted in this window mature when it closes
        if index == self.p["submit_len"] and closing >= self.first_timed:
            if self._payout_spendable(self.certificates[closing][0]):
                self.samples["transfer_roundtrip_s"].append(ended - self._ft_submitted[closing])

    # -- reading the mainchain -----------------------------------------------------------

    def _record(self, ledger_id: bytes, epoch: int):
        return self.node.state.cctp.entry(ledger_id).certificates.get(epoch)

    def _all_adopted(self, epoch: int) -> bool:
        # submission order is adoption order, so look from the back
        return all(self._record(lid, epoch) is not None for lid in reversed(self.ledgers))

    def _payout_spendable(self, certificate: WithdrawalCertificate) -> bool:
        utxos, height = self.node.state.utxos, self.node.height
        for position, bt in enumerate(certificate.bt_list):
            coin = utxos.get(Outpoint(certificate.id, position))
            if coin is None or coin.output.amount != bt.amount or not coin.spendable_at(height + 1):
                return False
        return True

    # -- results ---------------------------------------------------------------------------

    def _timed_certificates(self):
        """Certificates whose submission window lay in the timed phase."""
        for epoch in range(self.first_timed - 1, self.last_timed + 1):
            yield from self.certificates[epoch]

    def covered_transitions(self) -> int:
        """Forward and backward transfers settled by the adopted certificates."""
        return sum(
            1 + len(c.bt_list)
            for c in self._timed_certificates()
            if self._record(c.ledger_id, c.epoch_id) is not None
        )

    def certificates_adopted(self) -> int:
        return sum(
            1 for c in self._timed_certificates() if self._record(c.ledger_id, c.epoch_id) is not None
        )

    def _in_window(self, certificate) -> bool:
        record = self._record(certificate.ledger_id, certificate.epoch_id)
        return (
            record is not None
            and record.certificate.id == certificate.id
            and record.included_at_height in self.schedule.submission_window(certificate.epoch_id)
        )

    def checks(self) -> dict[str, bool]:
        state = self.node.state
        every = [c for batch in self.certificates.values() for c in batch]
        paid = sum(self.withdrawn.values())
        return {
            "certificates_adopted_in_window": all(self._in_window(c) for c in every),
            "proofs_are_96_bytes": all(len(c.proof.to_bytes()) == 96 for c in every),
            "payouts_equal_generated": all(self._payout_spendable(c) for c in every),
            "safeguard_balances": all(
                state.cctp.balance(lid) == self.deposited[lid] - self.withdrawn[lid]
                for lid in self.ledgers
            ),
            "mc_supply_identity": state.utxos.total_supply()
            == self.node.params.block_reward * self.node.height
            - sum(self.deposited.values())
            + paid,
            "mempool_drained": len(self.node.mempool) == 0,
            "no_operation_failed": self.failed == 0,
        }

    def count_certificate_outcomes(self) -> None:
        for batch in self.certificates.values():
            for certificate in batch:
                if not self._in_window(certificate):
                    self.failed += 1

    def fingerprint(self) -> dict[str, str]:
        certs = hashlib.blake2b(digest_size=16)
        for epoch in sorted(self.certificates):
            for certificate in self.certificates[epoch]:
                certs.update(certificate.encode())
        return {
            "state_digest": self.node.chain.tip.hash.hex(),
            "certificates": certs.hexdigest(),
        }

    def disk_bytes(self) -> int:
        return 0

    def close(self) -> None:
        self.node.close()
