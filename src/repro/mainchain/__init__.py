"""Bitcoin-like UTXO mainchain substrate (Def. 3.1) with CCTP hooks."""

from repro.mainchain.block import Block, BlockHeader, transactions_merkle_root
from repro.mainchain.chain import Blockchain, MainchainState
from repro.mainchain.mempool import Mempool
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import TEST_PARAMS, MainchainParams
from repro.mainchain.pow import block_work, meets_target, mine_header
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    Transaction,
    TransactionBuilder,
    TxInput,
    make_coinbase,
)
from repro.mainchain.utxo import Coin, Outpoint, TxOutput, UTXOSet
from repro.mainchain.validation import (
    compute_sc_txs_commitment,
    validate_block_structure,
)

__all__ = [
    "Block",
    "BlockHeader",
    "Blockchain",
    "BtrTx",
    "CertificateTx",
    "Coin",
    "CoinTransaction",
    "CswTx",
    "MainchainNode",
    "MainchainParams",
    "MainchainState",
    "Mempool",
    "Outpoint",
    "SidechainDeclarationTx",
    "TEST_PARAMS",
    "Transaction",
    "TransactionBuilder",
    "TxInput",
    "TxOutput",
    "UTXOSet",
    "block_work",
    "compute_sc_txs_commitment",
    "make_coinbase",
    "meets_target",
    "mine_header",
    "transactions_merkle_root",
    "validate_block_structure",
]
