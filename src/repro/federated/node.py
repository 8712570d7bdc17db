"""The federated sidechain node.

A minimal "sidechain that is not a blockchain": a federation of ``n``
operators replicates an account ledger, applies client operations the
moment they arrive, and — through the standard CCTP surface — deposits
forward transfers, drains its withdrawal queue into per-epoch certificates
endorsed by a ``t``-of-``n`` quorum, and authorizes ceased-sidechain exits.

From the mainchain's perspective this sidechain is indistinguishable from
Latus: same registration transaction, same certificate interface, same
verifier — only the verification keys (and thus the statements they bind)
differ.  That interchangeability is the paper's decoupling claim.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.bootstrap import ProofdataSchema, SidechainConfig
from repro.core.transfers import (
    CeasedSidechainWithdrawal,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.encoding import Encoder
from repro.errors import StateTransitionError, ZendooError
from repro.federated.circuits import (
    Federation,
    FederatedCswCircuit,
    FederatedCswWitness,
    FederatedWCertCircuit,
    FederatedWCertWitness,
    certificate_message,
    collect_signatures,
    exit_message,
)
from repro.federated.ledger import AccountLedger, AccountTransfer, WithdrawalRequest
from repro.mainchain.node import MainchainNode
from repro.mainchain.transaction import CertificateTx, CoinTransaction
from repro.snark import proving


def federation_from_seeds(seeds: list[str], threshold: int) -> tuple[Federation, list[KeyPair]]:
    """Deterministic federation keys for tests and examples."""
    keys = [KeyPair.from_seed(f"federation/{seed}") for seed in seeds]
    federation = Federation(
        members=tuple(k.public for k in keys), threshold=threshold
    )
    return federation, keys


def federated_sidechain_config(
    seed: str,
    start_block: int,
    epoch_len: int,
    submit_len: int,
    federation: Federation,
) -> SidechainConfig:
    """A sidechain configuration carrying the federation-bound keys."""
    _, wcert_vk = proving.setup(FederatedWCertCircuit(federation))
    _, csw_vk = proving.setup(FederatedCswCircuit(federation))
    return SidechainConfig(
        ledger_id=derive_ledger_id(seed),
        start_block=start_block,
        epoch_len=epoch_len,
        submit_len=submit_len,
        wcert_vk=wcert_vk,
        btr_vk=None,  # §4.1.2.1: a sidechain may omit BTR support entirely
        csw_vk=csw_vk,
        wcert_proofdata=ProofdataSchema(fields=("state_digest",)),
        csw_proofdata=ProofdataSchema(),
    )


class FederatedNode:
    """One federation operator (in the simulation: all of them at once)."""

    def __init__(
        self,
        config: SidechainConfig,
        mc_node: MainchainNode,
        federation: Federation,
        member_keys: list[KeyPair],
        auto_submit_certificates: bool = True,
    ) -> None:
        self.config = config
        self.ledger_id = config.ledger_id
        self.mc = mc_node
        self.federation = federation
        self.member_keys = member_keys
        self.auto_submit_certificates = auto_submit_certificates
        self._wcert_pk, _ = proving.setup(FederatedWCertCircuit(federation))
        self._csw_pk, _ = proving.setup(FederatedCswCircuit(federation))
        #: Client operations in arrival order (kept for reorg replay).
        self.operation_log: list[AccountTransfer | WithdrawalRequest] = []
        self._replay_log_after_sync: list[AccountTransfer | WithdrawalRequest] = []
        self._exit_counter = 0
        self._reset()

    def _reset(self) -> None:
        self.ledger = AccountLedger()
        self.synced_mc: list[tuple[int, bytes]] = []
        self.current_epoch = 0
        self.certificates: list[WithdrawalCertificate] = []
        self._applied_ops: set[bytes] = set()

    # -- client surface ----------------------------------------------------------

    def submit_transfer(self, transfer: AccountTransfer) -> None:
        """Apply a client transfer immediately (no blocks to wait for)."""
        self.ledger.apply_transfer(transfer)
        self.operation_log.append(transfer)
        self._applied_ops.add(transfer.txid)

    def submit_withdrawal(self, request: WithdrawalRequest) -> None:
        """Queue a withdrawal for the next certificate."""
        self.ledger.apply_withdrawal(request)
        self.operation_log.append(request)

    def balance_of(self, addr: bytes) -> int:
        """Ledger balance of an account."""
        return self.ledger.balance_of(addr)

    # -- mainchain following --------------------------------------------------------

    @property
    def synced_mc_height(self) -> int:
        if self.synced_mc:
            return self.synced_mc[-1][0]
        return min(self.config.start_block - 1, self.mc.height)

    def sync(self) -> None:
        """Follow the MC: deposits, epoch boundaries, reorg recovery.

        Reorg recovery is a *full rebuild* with operation-log replay —
        unlike Latus's surgical per-block rollback.  Client operations are
        not anchored to sidechain blocks here, so after a reorg the replay
        may order operations differently relative to epoch boundaries and
        past-epoch certificates can diverge from re-execution; the trust
        anchor of this construction is the federation, which simply signs
        the post-reorg reality (see DESIGN.md §8).
        """
        if self._diverged():
            log = list(self.operation_log)
            self._reset()
            self.operation_log = []
            self._replay_log_after_sync = log
        while self.synced_mc_height < self.mc.height:
            self._process_height(self.synced_mc_height + 1)
        if self._replay_log_after_sync:
            pending = self._replay_log_after_sync
            self._replay_log_after_sync = []
            for op in pending:
                try:
                    if isinstance(op, AccountTransfer):
                        self.submit_transfer(op)
                    else:
                        self.submit_withdrawal(op)
                except StateTransitionError:
                    continue  # no longer valid on the new branch

    def _diverged(self) -> bool:
        if not self.synced_mc:
            return False
        height, stored = self.synced_mc[-1]
        if height > self.mc.height:
            return True
        return self.mc.state.block_hash_at(height) != stored

    def _process_height(self, height: int) -> None:
        block = self.mc.chain.block_at_height(height)
        self.synced_mc.append((height, block.hash))
        if height < self.config.start_block:
            return
        # deposits: forward transfers whose metadata is a 32-byte address
        for tx in block.transactions:
            if isinstance(tx, CoinTransaction):
                for ft in tx.forward_transfers:
                    if ft.ledger_id != self.ledger_id:
                        continue
                    if len(ft.receiver_metadata) == 32:
                        self.ledger.deposit(ft.receiver_metadata, ft.amount)
                    # else: malformed metadata — burned (as in Latus)
        schedule = self.config.schedule
        if height == schedule.last_height(self.current_epoch):
            self._close_epoch(block.hash)

    # -- certificates ------------------------------------------------------------------

    def _close_epoch(self, h_epoch_last: bytes) -> None:
        epoch_id = self.current_epoch
        bt_list = tuple(self.ledger.pending_withdrawals)
        quality = self.ledger.operations_applied
        state_digest = self.ledger.digest()
        message = certificate_message(
            self.ledger_id, epoch_id, quality, bt_list, h_epoch_last, state_digest
        )
        witness = FederatedWCertWitness(
            ledger_id=self.ledger_id,
            epoch_id=epoch_id,
            quality=quality,
            bt_list=bt_list,
            h_epoch_last=h_epoch_last,
            state_digest=state_digest,
            signatures=collect_signatures(self.member_keys, message),
        )
        draft = WithdrawalCertificate(
            ledger_id=self.ledger_id,
            epoch_id=epoch_id,
            quality=quality,
            bt_list=bt_list,
            proofdata=(state_digest,),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        h_prev = (
            self.mc.state.block_hash_at(self.config.schedule.last_height(epoch_id - 1))
            if epoch_id > 0
            else b"\x00" * 32
        )
        public_input = draft.public_input(h_prev, h_epoch_last)
        certificate = replace(draft, proof=proving.prove(self._wcert_pk, public_input, witness))
        self.certificates.append(certificate)
        if self.auto_submit_certificates:
            try:
                self.mc.submit_transaction(CertificateTx(wcert=certificate))
            except ZendooError:
                pass
        self.ledger.start_new_epoch()
        self.current_epoch = epoch_id + 1

    # -- ceased exits ----------------------------------------------------------------------

    def make_csw(self, receiver: bytes, amount: int) -> CeasedSidechainWithdrawal:
        """Federation-authorized exit from a ceased sidechain.

        The nullifier is a deterministic counter-based tag so the federation
        can authorize each exit exactly once.
        """
        self._exit_counter += 1
        material = (
            Encoder()
            .raw(self.ledger_id)
            .var_bytes(receiver)
            .u64(amount)
            .u64(self._exit_counter)
            .done()
        )
        nullifier = hash_bytes(material, b"federated/nullifier")
        message = exit_message(self.ledger_id, receiver, amount, nullifier)
        witness = FederatedCswWitness(
            ledger_id=self.ledger_id,
            receiver=receiver,
            amount=amount,
            nullifier=nullifier,
            signatures=collect_signatures(self.member_keys, message),
        )
        entry = self.mc.state.cctp.entry(self.ledger_id)
        draft = CeasedSidechainWithdrawal(
            ledger_id=self.ledger_id,
            receiver=receiver,
            amount=amount,
            nullifier=nullifier,
            proofdata=(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        public_input = draft.public_input(entry.last_cert_block_hash)
        return replace(draft, proof=proving.prove(self._csw_pk, public_input, witness))
