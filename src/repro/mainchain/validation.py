"""Context-free block and transaction validation rules.

Everything here can be checked without chain state: structure, proof of
work, Merkle roots, and the sidechain-transactions commitment recomputation.
Stateful checks (UTXO existence, signatures against owners, CCTP rules)
live in :mod:`repro.mainchain.chain`.
"""

from __future__ import annotations

from repro.core.commitment import build_commitment
from repro.errors import ValidationError
from repro.mainchain.block import Block, transactions_merkle_root
from repro.mainchain.params import MainchainParams
from repro.mainchain.pow import meets_target
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    Transaction,
)


def compute_sc_txs_commitment(transactions: tuple[Transaction, ...]) -> bytes:
    """Recompute the header's ``SCTxsCommitment`` from the block body."""
    fts, btrs, wcerts = [], [], []
    for tx in transactions:
        if isinstance(tx, CoinTransaction):
            fts.extend(tx.forward_transfers)
        elif isinstance(tx, BtrTx):
            btrs.extend(tx.requests)
        elif isinstance(tx, CertificateTx):
            wcerts.append(tx.wcert)
    return build_commitment(fts, btrs, wcerts).root


def validate_block_structure(block: Block, params: MainchainParams) -> None:
    """All context-free checks; raises :class:`ValidationError` on failure."""
    if not block.transactions:
        raise ValidationError("block has no transactions")
    if len(block.transactions) > params.max_block_transactions:
        raise ValidationError("block exceeds the transaction limit")

    first, *rest = block.transactions
    if not isinstance(first, CoinTransaction) or not first.is_coinbase:
        raise ValidationError("first transaction must be the coinbase")
    for tx in rest:
        if isinstance(tx, CoinTransaction) and tx.is_coinbase:
            raise ValidationError("only one coinbase per block")

    if params.retarget_interval == 0 and block.header.target_bits != params.pow_zero_bits:
        raise ValidationError("wrong difficulty target")
    # with retargeting enabled, the correct per-height target is contextual
    # and checked by the chain (Blockchain.add_block); the PoW itself is
    # always checked against the declared target here
    if not meets_target(block.hash, block.header.target_bits):
        raise ValidationError("proof of work does not meet the target")

    if block.header.merkle_root != transactions_merkle_root(block.transactions):
        raise ValidationError("transaction merkle root mismatch")
    if block.header.sc_txs_commitment != compute_sc_txs_commitment(block.transactions):
        raise ValidationError("sidechain transactions commitment mismatch")

    for tx in block.transactions:
        validate_transaction_structure(tx)


def validate_transaction_structure(tx: Transaction) -> None:
    """Context-free per-transaction checks."""
    if isinstance(tx, CoinTransaction):
        if tx.is_coinbase and tx.inputs:
            raise ValidationError("coinbase must not have inputs")
        if not tx.is_coinbase and not tx.inputs:
            raise ValidationError("non-coinbase transaction must have inputs")
        for output in tx.outputs:
            if output.amount <= 0:
                raise ValidationError("outputs must carry positive amounts")
        for ft in tx.forward_transfers:
            if ft.amount <= 0:
                raise ValidationError("forward transfers must carry positive amounts")
        seen = set()
        for inp in tx.inputs:
            key = (inp.outpoint.txid, inp.outpoint.index)
            if key in seen:
                raise ValidationError("transaction spends the same outpoint twice")
            seen.add(key)
    elif isinstance(tx, BtrTx):
        if not tx.requests:
            raise ValidationError("BTR transaction carries no requests")
    elif isinstance(tx, (CertificateTx, CswTx, SidechainDeclarationTx)):
        pass
    else:
        raise ValidationError(f"unknown transaction type {type(tx).__name__}")
