"""Independent sidechain auditing.

A third party holding only (a) the sidechain's registered configuration,
(b) a mainchain node, and (c) a candidate sidechain block history can
re-verify everything the protocol promises without trusting the serving
node.  The auditor is a checking node: a fresh
:class:`~repro.latus.node.LatusNode` with no forging key that submits
nothing receives the history block by block, so it applies exactly the
rules every node applies (signatures, slot leadership, references, state
re-execution, the epoch-close certificate check), and its first refusal
becomes the report's violation.

This is the observability counterpart of §5.5.1's "verify that all
SC-related transactions were correctly synchronized ... without the need
to download and verify [the MC block] body" — here applied to the whole
sidechain history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core.bootstrap import SidechainConfig
from repro.errors import ZendooError
from repro.latus.block import SidechainBlock
from repro.latus.node import LatusNode
from repro.latus.params import LatusParams
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
        self.creator = SimpleNamespace(address=creator_address)  # a node reads only this

    def audit(self, blocks: list[SidechainBlock]) -> AuditReport:
        """Replay and check ``blocks``; returns the full report.

        The audit never raises on a protocol violation — it records the
        checking node's refusal and stops there (later blocks cannot be
        validated against a broken state).
        """
        report = AuditReport()
        node = LatusNode(
            config=self.config,
            params=self.params,
            mc_node=self.mc,
            creator=self.creator,
            forger_keys=[],
            auto_submit_certificates=False,
        )
        node.bootstrap_from([])  # the MC view only: blocks arrive one by one
        for block in blocks:
            try:
                node.receive_block(block)
            except ZendooError as exc:
                report.violations.append(f"block {block.height}: {exc}")
                break
            report.blocks_verified += 1
            report.transitions_applied += len(block.ordered_transitions())
            report.mc_references_verified += len(block.mc_refs)
        node.close()
        report.epochs_checked = len(node.anchors)
        entry = self.mc.state.cctp.sidechains.get(self.config.ledger_id)
        adopted = dict(entry.certificates.items()) if entry is not None else {}
        for epoch_id, anchor in node.anchors.items():
            record = adopted.get(epoch_id)
            if record is not None and record.certificate.id != anchor.certificate.id:
                report.certificate_mismatches.append(
                    f"epoch {epoch_id}: adopted certificate differs from re-execution"
                )
        return report
