"""The three Latus workloads: ``epoch_large``, ``epoch_small``, ``durable_nodes``.

All three drive the canonical pipeline through one loop — one *step* per
mainchain block: the clients hand over their transactions, the harness mines
the block, the sidechain node follows and forges, and at the epoch boundary
proves the epoch and submits its certificate.  They differ in size and in
what is attached to the forger: ``durable_nodes`` adds a ``FileStore`` and a
paged MST per node, two validating nodes fed over the wire codec, and one
crash/restart per epoch.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro import wire
from repro.core.transfers import BackwardTransfer
from repro.crypto.keys import KeyPair
from repro.errors import ZendooError
from repro.latus.node import LatusNode
from repro.latus.params import LatusParams
from repro.mainchain.utxo import Outpoint
from repro.scenarios import ZendooHarness

from benchmarks.pipeline.clock import RunClock
from benchmarks.pipeline.loadgen import LatusClients, McWallet

_SC_SEED = "bench"


def _view(node: LatusNode) -> tuple:
    """What two nodes agree on when they have converged."""
    return node.height, node.tip_hash, node.state.digest()


class LatusRun:
    """One sidechain, its clients and (optionally) its durable validators."""

    def __init__(self, params: dict, seed: int, clock: RunClock, data_root: Path | None) -> None:
        self.p = params
        self.seed = seed
        self.clock = clock
        self.data_root = data_root
        self.durable = data_root is not None
        self.validators: list[LatusNode] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {
            "epoch_close_s": [],
            "transfer_roundtrip_s": [],
            "sc_block_commit_ms": [],
            "restart_s": [],
        }
        self.mempool_depth_max = 0
        #: epoch -> transitions its proof covered
        self.transitions: dict[int, int] = {}
        self.ft_total = 0
        self.submitted_txids: list[bytes] = []
        self.restart_mismatches = 0
        self.critical_path_depth = 0
        self.first_timed = 2
        self.last_timed = 1 + params["epochs"]

    # -- construction ----------------------------------------------------------

    def _node_kwargs(self, name: str) -> dict:
        if not self.durable:
            return {}
        return dict(
            data_dir=self.data_root / name,
            fsync="block",
            paged_mst=True,
            mst_page_size=self.p["page_size"],
            mst_cache_pages=self.p["cache_pages"],
        )

    def setup(self) -> None:
        """Registration, the funding epoch and the cold epoch under load (untimed)."""
        p = self.p
        self.harness = harness = ZendooHarness()
        self.mc = harness.mc
        self.funder = McWallet(harness.miner, self.mc.params.coinbase_maturity)
        harness.mine(3)
        latus_params = LatusParams(mst_depth=p["mst_depth"], slots_per_epoch=8)
        self.handle = harness.create_sidechain(
            _SC_SEED,
            epoch_len=p["epoch_len"],
            submit_len=p["submit_len"],
            latus_params=latus_params,
            **self._node_kwargs("forger"),
        )
        self.node = self.handle.node
        self.schedule = self.handle.config.schedule
        if self.durable:
            self.validators = [
                LatusNode(
                    config=self.handle.config,
                    params=latus_params,
                    mc_node=self.mc,
                    creator=KeyPair.from_seed(f"{_SC_SEED}/creator"),
                    forger_keys=[],
                    **self._node_kwargs(f"validator-{i}"),
                )
                for i in range(2)
            ]
        for block in self.mc.chain.active_chain():
            self.funder.note_block(block)
        self.clients = LatusClients(
            self.seed, self.handle.ledger_id, p["mst_depth"], p["accounts"]
        )
        for keypair in self.clients.keys():
            self.node.add_forger(keypair)
        # epoch 0 funds the ring over several blocks, epoch 1 is the cold
        # epoch under load: both belong to set-up
        self._epoch(0, payers=0, funding=p["funding"])
        self._epoch(1, payers=p["warm_payers"])

    # -- the loop ----------------------------------------------------------------

    def run(self) -> None:
        """The timed epochs, then the blocks that let the last one settle."""
        p = self.p
        for epoch in range(self.first_timed, self.last_timed + 1):
            self._epoch(epoch, payers=p["payers"])
        # the last certificate is adopted in the next epoch's first block and
        # its payouts mature when the submission window closes
        for index in range(p["submit_len"] + 1):
            self._step(self.last_timed + 1, index, load=None)

    def _epoch(self, epoch: int, payers: int, funding: tuple[int, ...] = ()) -> None:
        p = self.p
        top_ups = [0] * p["epoch_len"]
        if payers:
            with self.clock.loadgen():
                # block 0 carries only the tagged transfer, so every epoch shows
                # the program the same multiset of forward transfers per block
                top_ups[1:] = self.clients.ft_schedule(p["ft_counts"][1:])
        for index in range(p["epoch_len"]):
            with self.clock.loadgen():
                load = self.clients.block(
                    epoch,
                    index,
                    payers=payers,
                    top_ups=top_ups[index],
                    funder=self.funder,
                    next_height=self.mc.height + 1,
                    fund=funding[index] if index < len(funding) else 0,
                )
            self._step(epoch, index, load)

    def _step(self, epoch: int, index: int, load) -> None:
        """One mainchain block through the whole stack."""
        clock = self.clock
        clock.operation(epoch, index)
        if self.durable and index == self.p["epoch_len"] // 2 and load is not None:
            self._crash_and_restart(self.validators[epoch % 2])
        started = clock.now()
        certs_before = len(self.node.certificates)
        if load is not None:
            if index == 0:
                self.clients.trips[epoch].submitted_at = started
            self.ft_total += load.ft_amount
            for tx in load.mc_txs:
                self._attempt(self.mc.submit_transaction, tx)
            for tx in load.sc_txs:
                self.submitted_txids.append(tx.txid)
                self._attempt(self.node.submit_transaction, tx)
        self.mempool_depth_max = max(self.mempool_depth_max, len(self.mc.mempool))
        height_before = self.node.height
        self.harness.mine(1)
        if self.durable:
            self._replicate(self.node.blocks[height_before + 1 :])
        ended = clock.now()

        # -- observe what the step did (reads only)
        with clock.loadgen():
            self.funder.note_block(self.mc.chain.tip)
        if len(self.node.certificates) > certs_before:
            self._sample("epoch_close_s", ended - started)
            stats = self.node.last_epoch_stats
            self.transitions[epoch] = stats.base_proofs
            self.critical_path_depth = max(self.critical_path_depth, stats.critical_path_depth)
        for trip in self.clients.trips.values():
            if trip.spendable_at is None and self._payout_spendable(trip):
                trip.spendable_at = ended
                if trip.epoch >= self.first_timed:
                    self._sample("transfer_roundtrip_s", ended - trip.submitted_at)

    def _sample(self, metric: str, value: float) -> None:
        """Keep a per-operation timing — of the timed phase only."""
        if self.clock.running:
            self.samples[metric].append(value)

    def _attempt(self, operation, *args) -> None:
        self.attempted += 1
        try:
            operation(*args)
        except ZendooError:
            self.failed += 1

    def _replicate(self, blocks) -> None:
        """Ship each forged block to both validators through the wire codec."""
        for block in blocks:
            forged = self.clock.now()
            raw = wire.encode_sidechain_block(block)
            for validator in self.validators:
                validator.sync()
                self._attempt(validator.receive_block, wire.decode_sidechain_block(raw))
            self._sample("sc_block_commit_ms", (self.clock.now() - forged) * 1e3)

    def _crash_and_restart(self, victim: LatusNode) -> None:
        committed = _view(victim)
        victim.crash()
        started = self.clock.now()
        victim.restart()
        self._sample("restart_s", self.clock.now() - started)
        self.attempted += 1
        if _view(victim) != committed:
            self.failed += 1
            self.restart_mismatches += 1

    # -- reading the mainchain ------------------------------------------------------

    def _adopted(self, epoch: int):
        entry = self.mc.state.cctp.entry(self.handle.ledger_id)
        return entry.certificates.get(epoch)

    def _adopted_in_window(self, epoch: int) -> bool:
        record = self._adopted(epoch)
        return (
            record is not None
            and record.included_at_height in self.schedule.submission_window(epoch)
        )

    def _payout_spendable(self, trip) -> bool:
        record = self._adopted(trip.epoch)
        if record is None:
            return False
        expected = BackwardTransfer(receiver_addr=trip.mc_receiver, amount=trip.amount)
        for position, bt in enumerate(record.certificate.bt_list):
            if bt == expected:
                coin = self.mc.state.utxos.get(Outpoint(record.certificate.id, position))
                return coin is not None and coin.spendable_at(self.mc.height + 1)
        return False

    # -- results ----------------------------------------------------------------------

    def covered_transitions(self) -> int:
        """Transitions of timed epochs whose certificate the mainchain adopted."""
        return sum(
            count
            for epoch, count in self.transitions.items()
            if epoch >= self.first_timed and self._adopted(epoch) is not None
        )

    def certificates_adopted(self) -> int:
        """Certificates the mainchain adopted during the timed phase."""
        # the certificate of epoch e is adopted in the first block of e + 1
        timed = range(self.first_timed - 1, self.last_timed + 1)
        return sum(1 for e in timed if self._adopted(e) is not None)

    def checks(self) -> dict[str, bool]:
        """The output checks; every value must be True."""
        epochs = range(self.last_timed + 1)
        records = {e: self._adopted(e) for e in epochs}
        trips = self.clients.trips
        paid = sum(trips[e].amount for e in epochs if records[e] is not None)
        mc_state = self.mc.state
        out = {
            "certificates_adopted_in_window": all(self._adopted_in_window(e) for e in epochs),
            "proofs_are_96_bytes": all(
                len(c.proof.to_bytes()) == 96 for c in self.node.certificates
            ),
            "bt_lists_equal_generated": all(
                r is not None
                and r.certificate.bt_list
                == (BackwardTransfer(trips[e].mc_receiver, trips[e].amount),)
                for e, r in records.items()
            ),
            "payouts_matured": all(trips[e].spendable_at is not None for e in epochs),
            "safeguard_balance": mc_state.cctp.balance(self.handle.ledger_id)
            == self.ft_total - paid,
            "mc_supply_identity": mc_state.utxos.total_supply()
            == self.mc.params.block_reward * self.mc.height - self.ft_total + paid,
            "all_sc_transactions_included": all(
                txid in self.node.included_txids for txid in self.submitted_txids
            ),
            "no_operation_failed": self.failed == 0,
        }
        if self.durable:
            out["validators_converged"] = all(
                _view(v) == _view(self.node) for v in self.validators
            )
            out["recovered_digest_equals_committed"] = (
                self.restart_mismatches == 0 and len(self.samples["restart_s"]) > 0
            )
        return out

    def count_certificate_outcomes(self) -> None:
        """Fold the certificates into the attempted/failed operation counts."""
        for epoch in range(self.last_timed + 1):
            self.attempted += 1
            if not self._adopted_in_window(epoch):
                self.failed += 1
        for txid in self.submitted_txids:
            if txid not in self.node.included_txids:
                self.failed += 1

    def fingerprint(self) -> dict[str, str]:
        """What must be identical across the repeats of one seed."""
        certs = hashlib.blake2b(digest_size=16)
        for certificate in self.node.certificates:
            certs.update(certificate.encode())
        return {
            "state_digest": hex(self.node.state.digest()),
            "certificates": certs.hexdigest(),
        }

    def disk_bytes(self) -> int:
        if not self.durable:
            return 0
        return sum(f.stat().st_size for f in self.data_root.rglob("*") if f.is_file())

    def close(self) -> None:
        for node in (self.node, *self.validators):
            node.close()
