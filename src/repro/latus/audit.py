"""Independent sidechain auditing.

A third party holding only (a) the sidechain's registered configuration,
(b) a mainchain node, and (c) a candidate sidechain block history can
re-verify everything the protocol promises without trusting the serving
node: block signatures and slot leadership, reference contiguity and
commitment proofs, full state re-execution, per-block digest commitments,
and agreement between locally recomputed epoch data and the certificates
the mainchain adopted.

This is the observability counterpart of §5.5.1's "verify that all
SC-related transactions were correctly synchronized ... without the need
to download and verify [the MC block] body" — here applied to the whole
sidechain history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bootstrap import SidechainConfig
from repro.core.transfers import bt_list_root
from repro.errors import StateTransitionError, ZendooError
from repro.latus.block import SidechainBlock
from repro.latus.consensus.ouroboros import (
    LeaderSchedule,
    genesis_seed,
    next_epoch_seed,
)
from repro.latus.consensus.stake import StakeDistribution
from repro.latus.mc_ref import verify_mc_ref
from repro.latus.params import LatusParams
from repro.latus.state import LatusState
from repro.latus.transactions import index_transition
from repro.latus.utxo import Utxo, address_to_field
from repro.mainchain.node import MainchainNode


@dataclass
class AuditReport:
    """Findings of one audit run."""

    blocks_verified: int = 0
    transitions_applied: int = 0
    mc_references_verified: int = 0
    epochs_checked: int = 0
    certificate_mismatches: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no violation or certificate mismatch was found."""
        return not self.violations and not self.certificate_mismatches


class SidechainAuditor:
    """Re-verifies a full Latus history against the mainchain record."""

    def __init__(
        self,
        config: SidechainConfig,
        params: LatusParams,
        mc_node: MainchainNode,
        creator_address: bytes,
    ) -> None:
        self.config = config
        self.params = params
        self.mc = mc_node
        self.creator_field = address_to_field(creator_address)

    def audit(self, blocks: list[SidechainBlock]) -> AuditReport:
        """Replay and check ``blocks``; returns the full report.

        The audit never raises on a protocol violation — it records it and
        stops replaying (later blocks cannot be validated against a broken
        state).
        """
        report = AuditReport()
        state = LatusState(self.params.mst_depth)
        utxo_index: dict[int, Utxo] = {}
        seeds = {0: genesis_seed(self.config.ledger_id)}
        stakes = {0: StakeDistribution.from_mapping({})}
        expected_mc_height = self.config.start_block
        prev_hash = b"\x00" * 32
        epoch_bts: list = []
        epoch_id = 0

        for block in blocks:
            # --- structural and consensus checks
            if block.parent_hash != prev_hash:
                report.violations.append(
                    f"block {block.height}: broken parent link"
                )
                break
            if not block.verify_signature():
                report.violations.append(f"block {block.height}: bad signature")
                break
            consensus_epoch = block.slot // self.params.slots_per_epoch
            for epoch in range(max(seeds) + 1, consensus_epoch + 1):
                seeds[epoch] = next_epoch_seed(seeds[epoch - 1], epoch)
                stakes[epoch] = StakeDistribution.from_utxos(utxo_index.values())
            schedule = LeaderSchedule(
                epoch=consensus_epoch,
                seed=seeds[consensus_epoch],
                distribution=stakes[consensus_epoch],
                slots_per_epoch=self.params.slots_per_epoch,
                bootstrap_leader=self.creator_field,
            )
            if not schedule.is_leader(
                block.forger_addr, block.slot % self.params.slots_per_epoch
            ):
                report.violations.append(
                    f"block {block.height}: forger is not the slot leader"
                )
                break

            # --- reference checks
            reference_failure = False
            for ref in block.mc_refs:
                if ref.mc_height != expected_mc_height:
                    report.violations.append(
                        f"block {block.height}: non-contiguous MC reference "
                        f"{ref.mc_height} (expected {expected_mc_height})"
                    )
                    reference_failure = True
                    break
                if (
                    ref.mc_height > self.mc.height
                    or ref.mc_block_hash != self.mc.state.block_hash_at(ref.mc_height)
                ):
                    report.violations.append(
                        f"block {block.height}: reference to a non-active MC block"
                    )
                    reference_failure = True
                    break
                try:
                    verify_mc_ref(ref, self.config.ledger_id)
                except ZendooError as exc:
                    report.violations.append(
                        f"block {block.height}: reference commitment failed ({exc})"
                    )
                    reference_failure = True
                    break
                expected_mc_height += 1
                report.mc_references_verified += 1
            if reference_failure:
                break

            # --- state re-execution
            execution_failure = False
            for tx in block.ordered_transitions():
                try:
                    state.apply(tx)
                except StateTransitionError as exc:
                    report.violations.append(
                        f"block {block.height}: invalid transition ({exc})"
                    )
                    execution_failure = True
                    break
                index_transition(utxo_index, tx)
                report.transitions_applied += 1
            if execution_failure:
                break
            if state.digest() != block.state_digest:
                report.violations.append(
                    f"block {block.height}: state digest mismatch"
                )
                break

            # --- withdrawal-epoch bookkeeping + MC cross-check
            if (
                block.mc_refs
                and block.mc_refs[-1].mc_height
                == self.config.schedule.last_height(epoch_id)
            ):
                epoch_bts = list(state.backward_transfers)
                self._check_certificate(report, epoch_id, epoch_bts, block)
                state.start_new_epoch()
                epoch_id += 1
                report.epochs_checked += 1

            prev_hash = block.hash
            report.blocks_verified += 1

        return report

    def _check_certificate(
        self,
        report: AuditReport,
        epoch_id: int,
        bt_list: list,
        last_block: SidechainBlock,
    ) -> None:
        """Compare the locally recomputed epoch against the adopted cert."""
        entry = self.mc.state.cctp.sidechains.get(self.config.ledger_id)
        record = entry.certificates.get(epoch_id) if entry else None
        if record is None:
            return  # not adopted (yet) — nothing to cross-check
        cert = record.certificate
        if bt_list_root(tuple(bt_list)) != bt_list_root(cert.bt_list):
            report.certificate_mismatches.append(
                f"epoch {epoch_id}: adopted BTList differs from re-execution"
            )
        if cert.quality != last_block.height:
            report.certificate_mismatches.append(
                f"epoch {epoch_id}: adopted quality {cert.quality} != "
                f"recomputed height {last_block.height}"
            )
