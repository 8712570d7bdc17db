"""The Latus sidechain construction (paper §5)."""

from repro.latus.audit import AuditReport, SidechainAuditor
from repro.latus.block import SidechainBlock, forge_block
from repro.latus.mc_ref import (
    MCBlockReference,
    build_mc_ref,
    extract_sidechain_slice,
    verify_mc_ref,
)
from repro.latus.mst import MerkleStateTree
from repro.latus.mst_delta import MstDelta, untouched_since, verify_unspent_across_epochs
from repro.latus.node import CertificateAnchor, LatusNode
from repro.latus.params import TEST_LATUS_PARAMS, LatusParams
from repro.latus.proofs import EpochProofResult, EpochProver, LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    LatusTransaction,
    PaymentTx,
    SignedInput,
    build_btr_tx,
    build_forward_transfers_tx,
    ft_output,
    pack_receiver_metadata,
    parse_receiver_metadata,
    sign_backward_transfer,
    sign_payment,
    utxo_from_btr_proofdata,
)
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.latus.wallet import LatusWallet
from repro.latus.wcert import (
    LatusWCertCircuit,
    WCertWitness,
    WithdrawalCertificateBuilder,
    latus_proofdata,
)
from repro.latus.withdrawal_circuits import (
    LatusBtrCircuit,
    LatusCswCircuit,
    WithdrawalWitness,
    sign_withdrawal,
    withdrawal_auth_message,
)

__all__ = [
    "AuditReport",
    "BackwardTransferRequestsTx",
    "BackwardTransferTx",
    "CertificateAnchor",
    "EpochProofResult",
    "EpochProver",
    "ForwardTransfersTx",
    "LatusBtrCircuit",
    "LatusCswCircuit",
    "LatusNode",
    "LatusParams",
    "LatusState",
    "LatusTransaction",
    "LatusTransitionSystem",
    "LatusWCertCircuit",
    "LatusWallet",
    "MCBlockReference",
    "MerkleStateTree",
    "MstDelta",
    "PaymentTx",
    "SidechainAuditor",
    "SidechainBlock",
    "SignedInput",
    "TEST_LATUS_PARAMS",
    "Utxo",
    "WCertWitness",
    "WithdrawalCertificateBuilder",
    "WithdrawalWitness",
    "address_to_field",
    "build_btr_tx",
    "build_forward_transfers_tx",
    "build_mc_ref",
    "derive_nonce",
    "extract_sidechain_slice",
    "forge_block",
    "ft_output",
    "latus_proofdata",
    "pack_receiver_metadata",
    "parse_receiver_metadata",
    "sign_backward_transfer",
    "sign_payment",
    "sign_withdrawal",
    "untouched_since",
    "utxo_from_btr_proofdata",
    "verify_mc_ref",
    "verify_unspent_across_epochs",
    "withdrawal_auth_message",
]
