"""Wire-format decoders for every network-transmitted protocol object.

The canonical encodings are defined by each object's ``encode`` method;
this module is the inverse: strict, bounds-checked decoders so nodes can
exchange transactions, certificates, blocks and sidechain configurations
as byte strings.  Every decoder raises
:class:`~repro.errors.DecodeError` on malformed input, and the
``decode_*`` entry points additionally reject trailing bytes.
"""

from __future__ import annotations

from repro.core.bootstrap import ProofdataSchema, SidechainConfig
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
)
from repro.crypto.signatures import PublicKey, Signature
from repro.encoding import Decoder
from repro.errors import CctpError, DecodeError, SignatureError, SnarkError
from repro.latus.transactions import (
    BackwardTransferRequestsTx,
    BackwardTransferTx,
    ForwardTransfersTx,
    LatusTransaction,
    PaymentTx,
    SignedInput,
)
from repro.latus.utxo import Utxo
from repro.mainchain.block import Block, BlockHeader
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    Transaction,
    TxInput,
)
from repro.mainchain.utxo import Outpoint, TxOutput
from repro.snark.proving import Proof, VerifyingKey

# ---------------------------------------------------------------------------
# SNARK objects (their own constructors raise SnarkError)
# ---------------------------------------------------------------------------


def read_proof(dec: Decoder) -> Proof:
    try:
        return Proof.from_bytes(dec.var_bytes())
    except SnarkError as exc:
        raise DecodeError(str(exc)) from exc


def read_verifying_key(dec: Decoder) -> VerifyingKey:
    try:
        return VerifyingKey.from_bytes(dec.var_bytes())
    except SnarkError as exc:
        raise DecodeError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Signature objects (their own constructors raise SignatureError)
# ---------------------------------------------------------------------------


def read_public_key(dec: Decoder) -> PublicKey:
    try:
        return PublicKey.from_bytes(dec.var_bytes())
    except SignatureError as exc:
        raise DecodeError(str(exc)) from exc


def read_signature(dec: Decoder) -> Signature:
    try:
        return Signature.from_bytes(dec.var_bytes())
    except SignatureError as exc:
        raise DecodeError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CCTP datatypes (repro.core.transfers)
# ---------------------------------------------------------------------------


def read_forward_transfer(dec: Decoder) -> ForwardTransfer:
    return ForwardTransfer(
        ledger_id=dec.raw(32),
        receiver_metadata=dec.var_bytes(),
        amount=dec.u64(),
    )


def read_backward_transfer(dec: Decoder) -> BackwardTransfer:
    return BackwardTransfer(receiver_addr=dec.var_bytes(), amount=dec.u64())


def read_withdrawal_certificate(dec: Decoder) -> WithdrawalCertificate:
    ledger_id = dec.raw(32)
    epoch_id = dec.u64()
    quality = dec.u64()
    bt_list = dec.sequence(lambda d: _nested(d, read_backward_transfer))
    proofdata = dec.sequence(lambda d: d.field_element())
    proof = read_proof(dec)
    return WithdrawalCertificate(
        ledger_id=ledger_id,
        epoch_id=epoch_id,
        quality=quality,
        bt_list=tuple(bt_list),
        proofdata=tuple(proofdata),
        proof=proof,
    )


def _read_withdrawal_request_fields(dec: Decoder) -> dict:
    return dict(
        ledger_id=dec.raw(32),
        receiver=dec.var_bytes(),
        amount=dec.u64(),
        nullifier=dec.var_bytes(),
        proofdata=tuple(dec.sequence(lambda d: d.field_element())),
        proof=read_proof(dec),
    )


def read_backward_transfer_request(dec: Decoder) -> BackwardTransferRequest:
    return BackwardTransferRequest(**_read_withdrawal_request_fields(dec))


def read_ceased_sidechain_withdrawal(dec: Decoder) -> CeasedSidechainWithdrawal:
    return CeasedSidechainWithdrawal(**_read_withdrawal_request_fields(dec))


def read_sidechain_config(dec: Decoder) -> SidechainConfig:
    ledger_id = dec.raw(32)
    start_block = dec.u64()
    epoch_len = dec.u64()
    submit_len = dec.u64()
    wcert_vk = read_verifying_key(dec)
    btr_vk = dec.optional(read_verifying_key)
    csw_vk = dec.optional(read_verifying_key)
    schemas = [
        ProofdataSchema(fields=tuple(dec.sequence(lambda d: d.text())))
        for _ in range(3)
    ]
    try:  # the schedule refuses a bad epoch_len, submit_len or start_block
        return SidechainConfig(
            ledger_id=ledger_id,
            start_block=start_block,
            epoch_len=epoch_len,
            submit_len=submit_len,
            wcert_vk=wcert_vk,
            btr_vk=btr_vk,
            csw_vk=csw_vk,
            wcert_proofdata=schemas[0],
            btr_proofdata=schemas[1],
            csw_proofdata=schemas[2],
        )
    except CctpError as exc:
        raise DecodeError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Mainchain transactions and blocks
# ---------------------------------------------------------------------------


def read_outpoint(dec: Decoder) -> Outpoint:
    return Outpoint(txid=dec.raw(32), index=dec.u32())


def read_tx_output(dec: Decoder) -> TxOutput:
    return TxOutput(addr=dec.var_bytes(), amount=dec.u64())


def read_tx_input(dec: Decoder) -> TxInput:
    return TxInput(
        outpoint=read_outpoint(dec),
        pubkey=read_public_key(dec),
        signature=read_signature(dec),
    )


def _nested(dec: Decoder, read_item):
    inner = Decoder(dec.var_bytes())
    item = read_item(inner)
    inner.done()
    return item


def read_mc_transaction(dec: Decoder) -> Transaction:
    kind = dec.u8()
    if kind == CoinTransaction.kind:
        is_coinbase = dec.boolean()
        coinbase_tag = dec.var_bytes()
        inputs = dec.sequence(lambda d: _nested(d, read_tx_input))
        outputs = dec.sequence(lambda d: _nested(d, read_tx_output))
        fts = dec.sequence(lambda d: _nested(d, read_forward_transfer))
        return CoinTransaction(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            forward_transfers=tuple(fts),
            is_coinbase=is_coinbase,
            coinbase_tag=coinbase_tag,
        )
    if kind == SidechainDeclarationTx.kind:
        return SidechainDeclarationTx(config=_nested(dec, read_sidechain_config))
    if kind == CertificateTx.kind:
        return CertificateTx(wcert=_nested(dec, read_withdrawal_certificate))
    if kind == BtrTx.kind:
        requests = dec.sequence(
            lambda d: _nested(d, read_backward_transfer_request)
        )
        return BtrTx(requests=tuple(requests))
    if kind == CswTx.kind:
        return CswTx(csw=_nested(dec, read_ceased_sidechain_withdrawal))
    raise DecodeError(f"unknown mainchain transaction kind {kind}")


def read_block_header(dec: Decoder) -> BlockHeader:
    return BlockHeader(
        prev_hash=dec.raw(32),
        height=dec.u64(),
        merkle_root=dec.raw(32),
        sc_txs_commitment=dec.raw(32),
        timestamp=dec.u64(),
        target_bits=dec.u32(),
        nonce=dec.u64(),
    )


def read_block(dec: Decoder) -> Block:
    header = _nested(dec, read_block_header)
    transactions = dec.sequence(lambda d: _nested(d, read_mc_transaction))
    return Block(header=header, transactions=tuple(transactions))


# ---------------------------------------------------------------------------
# Latus transactions
# ---------------------------------------------------------------------------


def read_utxo(dec: Decoder) -> Utxo:
    return Utxo(addr=dec.field_element(), amount=dec.u64(), nonce=dec.field_element())


def read_signed_input(dec: Decoder) -> SignedInput:
    return SignedInput(
        utxo=_nested(dec, read_utxo),
        pubkey=read_public_key(dec),
        signature=read_signature(dec),
    )


def read_latus_transaction(dec: Decoder) -> LatusTransaction:
    kind = dec.u8()
    if kind == PaymentTx.kind:
        inputs = dec.sequence(lambda d: _nested(d, read_signed_input))
        outputs = dec.sequence(lambda d: _nested(d, read_utxo))
        return PaymentTx(inputs=tuple(inputs), outputs=tuple(outputs))
    if kind == BackwardTransferTx.kind:
        inputs = dec.sequence(lambda d: _nested(d, read_signed_input))
        bts = dec.sequence(lambda d: _nested(d, read_backward_transfer))
        return BackwardTransferTx(
            inputs=tuple(inputs), backward_transfers=tuple(bts)
        )
    if kind == ForwardTransfersTx.kind:
        mc_block_id = dec.raw(32)
        transfers = dec.sequence(lambda d: _nested(d, read_forward_transfer))
        outputs = dec.sequence(lambda d: _nested(d, read_utxo))
        rejected = dec.sequence(lambda d: _nested(d, read_backward_transfer))
        return ForwardTransfersTx(
            mc_block_id=mc_block_id,
            transfers=tuple(transfers),
            outputs=tuple(outputs),
            rejected=tuple(rejected),
        )
    if kind == BackwardTransferRequestsTx.kind:
        mc_block_id = dec.raw(32)
        requests = dec.sequence(
            lambda d: _nested(d, read_backward_transfer_request)
        )
        inputs = dec.sequence(lambda d: _nested(d, read_utxo))
        bts = dec.sequence(lambda d: _nested(d, read_backward_transfer))
        return BackwardTransferRequestsTx(
            mc_block_id=mc_block_id,
            requests=tuple(requests),
            inputs=tuple(inputs),
            backward_transfers=tuple(bts),
        )
    raise DecodeError(f"unknown latus transaction kind {kind}")


# ---------------------------------------------------------------------------
# Byte-string entry points (strict: reject trailing bytes)
# ---------------------------------------------------------------------------


def _strict(read_item, data: bytes):
    dec = Decoder(data)
    item = read_item(dec)
    dec.done()
    return item


def decode_forward_transfer(data: bytes) -> ForwardTransfer:
    """Decode a :class:`ForwardTransfer` from its canonical bytes."""
    return _strict(read_forward_transfer, data)


def decode_backward_transfer(data: bytes) -> BackwardTransfer:
    """Decode a :class:`BackwardTransfer`."""
    return _strict(read_backward_transfer, data)


def decode_withdrawal_certificate(data: bytes) -> WithdrawalCertificate:
    """Decode a :class:`WithdrawalCertificate`."""
    return _strict(read_withdrawal_certificate, data)


def decode_backward_transfer_request(data: bytes) -> BackwardTransferRequest:
    """Decode a :class:`BackwardTransferRequest`."""
    return _strict(read_backward_transfer_request, data)


def decode_ceased_sidechain_withdrawal(data: bytes) -> CeasedSidechainWithdrawal:
    """Decode a :class:`CeasedSidechainWithdrawal`."""
    return _strict(read_ceased_sidechain_withdrawal, data)


def decode_sidechain_config(data: bytes) -> SidechainConfig:
    """Decode a :class:`SidechainConfig`."""
    return _strict(read_sidechain_config, data)


def decode_mc_transaction(data: bytes) -> Transaction:
    """Decode any mainchain transaction (dispatch on the kind byte)."""
    return _strict(read_mc_transaction, data)


def decode_block_header(data: bytes) -> BlockHeader:
    """Decode a mainchain :class:`BlockHeader`."""
    return _strict(read_block_header, data)


def decode_block(data: bytes) -> Block:
    """Decode a full mainchain :class:`Block`."""
    return _strict(read_block, data)


def decode_latus_transaction(data: bytes) -> LatusTransaction:
    """Decode any Latus transaction (dispatch on the kind byte)."""
    return _strict(read_latus_transaction, data)


def decode_utxo(data: bytes) -> Utxo:
    """Decode a Latus :class:`Utxo`."""
    return _strict(read_utxo, data)


# ---------------------------------------------------------------------------
# Proof objects and sidechain blocks (the peer-to-peer payloads)
# ---------------------------------------------------------------------------

from repro.core.commitment import AbsenceProof, PresenceProof, _NeighborLeaf
from repro.crypto.merkle import MerkleProof
from repro.encoding import Encoder
from repro.latus.block import SidechainBlock
from repro.latus.mc_ref import MCBlockReference


def write_merkle_proof(enc: Encoder, proof: MerkleProof) -> None:
    """Serialize a byte-tree Merkle proof."""
    enc.raw(proof.leaf).u32(proof.index)
    enc.sequence(proof.siblings, lambda e, s: e.raw(s))
    enc.sequence(proof.path_bits, lambda e, b: e.boolean(b))


def read_merkle_proof(dec: Decoder) -> MerkleProof:
    """Deserialize a byte-tree Merkle proof."""
    leaf = dec.raw(32)
    index = dec.u32()
    siblings = dec.sequence(lambda d: d.raw(32))
    path_bits = dec.sequence(lambda d: d.boolean())
    if len(siblings) != len(path_bits):
        raise DecodeError("merkle proof siblings/path length mismatch")
    return MerkleProof(
        leaf=leaf, index=index, siblings=tuple(siblings), path_bits=tuple(path_bits)
    )


def _write_neighbor(enc: Encoder, leaf: _NeighborLeaf) -> None:
    enc.raw(leaf.ledger_id).raw(leaf.txs_hash).raw(leaf.wcert_hash)
    write_merkle_proof(enc, leaf.merkle_proof)


def _read_neighbor(dec: Decoder) -> _NeighborLeaf:
    return _NeighborLeaf(
        ledger_id=dec.raw(32),
        txs_hash=dec.raw(32),
        wcert_hash=dec.raw(32),
        merkle_proof=read_merkle_proof(dec),
    )


def write_presence_proof(enc: Encoder, proof: PresenceProof) -> None:
    """Serialize an ``mproof``."""
    enc.raw(proof.ledger_id).raw(proof.txs_hash).raw(proof.wcert_hash)
    write_merkle_proof(enc, proof.merkle_proof)
    enc.u32(proof.leaf_count)


def read_presence_proof(dec: Decoder) -> PresenceProof:
    """Deserialize an ``mproof``."""
    return PresenceProof(
        ledger_id=dec.raw(32),
        txs_hash=dec.raw(32),
        wcert_hash=dec.raw(32),
        merkle_proof=read_merkle_proof(dec),
        leaf_count=dec.u32(),
    )


def write_absence_proof(enc: Encoder, proof: AbsenceProof) -> None:
    """Serialize a ``proofOfNoData``."""
    enc.raw(proof.ledger_id)
    enc.optional(proof.left, _write_neighbor)
    enc.optional(proof.right, _write_neighbor)
    enc.u32(proof.leaf_count)


def read_absence_proof(dec: Decoder) -> AbsenceProof:
    """Deserialize a ``proofOfNoData``."""
    return AbsenceProof(
        ledger_id=dec.raw(32),
        left=dec.optional(_read_neighbor),
        right=dec.optional(_read_neighbor),
        leaf_count=dec.u32(),
    )


def encode_mc_ref(ref: MCBlockReference) -> bytes:
    """Canonical wire encoding of an MC block reference (§5.5.1)."""
    enc = Encoder().var_bytes(ref.header.encode())
    enc.optional(ref.mproof, write_presence_proof)
    enc.optional(ref.proof_of_no_data, write_absence_proof)
    enc.optional(ref.forward_transfers, lambda e, tx: e.var_bytes(tx.encode()))
    enc.optional(ref.bt_requests, lambda e, tx: e.var_bytes(tx.encode()))
    enc.optional(ref.wcert, lambda e, c: e.var_bytes(c.encode()))
    return enc.done()


def read_mc_ref(dec: Decoder) -> MCBlockReference:
    """Deserialize an MC block reference."""
    header = _nested(dec, read_block_header)
    mproof = dec.optional(read_presence_proof)
    no_data = dec.optional(read_absence_proof)
    ftt = dec.optional(lambda d: _nested(d, read_latus_transaction))
    btrtx = dec.optional(lambda d: _nested(d, read_latus_transaction))
    wcert = dec.optional(lambda d: _nested(d, read_withdrawal_certificate))
    if ftt is not None and not isinstance(ftt, ForwardTransfersTx):
        raise DecodeError("reference FTTx slot holds a different transaction kind")
    if btrtx is not None and not isinstance(btrtx, BackwardTransferRequestsTx):
        raise DecodeError("reference BTRTx slot holds a different transaction kind")
    return MCBlockReference(
        header=header,
        mproof=mproof,
        proof_of_no_data=no_data,
        forward_transfers=ftt,
        bt_requests=btrtx,
        wcert=wcert,
    )


def decode_mc_ref(data: bytes) -> MCBlockReference:
    """Decode an MC block reference from bytes."""
    return _strict(read_mc_ref, data)


def encode_sidechain_block(block: SidechainBlock) -> bytes:
    """Full wire encoding of a Latus block (the P2P broadcast payload).

    Note this is richer than ``SidechainBlock.encode_unsigned`` (which
    defines the block id over reference hashes and txids only): the wire
    form carries complete references and transactions so a peer can run
    full validation.
    """
    enc = (
        Encoder()
        .raw(block.parent_hash)
        .u64(block.height)
        .u64(block.slot)
        .var_bytes(block.forger_pubkey.to_bytes())
        .field_element(block.state_digest)
    )
    enc.sequence(block.mc_refs, lambda e, r: e.var_bytes(encode_mc_ref(r)))
    enc.sequence(block.transactions, lambda e, t: e.var_bytes(t.encode()))
    enc.var_bytes(block.signature.to_bytes())
    return enc.done()


def read_sidechain_block(dec: Decoder) -> SidechainBlock:
    """Deserialize a Latus block."""
    parent_hash = dec.raw(32)
    height = dec.u64()
    slot = dec.u64()
    forger_pubkey = read_public_key(dec)
    state_digest = dec.field_element()
    mc_refs = dec.sequence(lambda d: _nested(d, read_mc_ref))
    transactions = dec.sequence(lambda d: _nested(d, read_latus_transaction))
    signature = read_signature(dec)
    return SidechainBlock(
        parent_hash=parent_hash,
        height=height,
        slot=slot,
        forger_pubkey=forger_pubkey,
        mc_refs=tuple(mc_refs),
        transactions=tuple(transactions),
        state_digest=state_digest,
        signature=signature,
    )


def decode_sidechain_block(data: bytes) -> SidechainBlock:
    """Decode a Latus block from bytes."""
    return _strict(read_sidechain_block, data)
