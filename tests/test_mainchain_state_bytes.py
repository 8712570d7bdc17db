"""Golden bytes of the ``mc/state`` snapshot section.

``encode_mainchain_state`` is what a mainchain node snapshots, so its bytes
must not move when the in-memory layout of the state does.  The digest
below was taken of a fixed chain that holds every shape the state stores:

* a coin at output index ≥ 256 (and certificate payouts at index ≥ 256):
  the section sorts coins by ``(txid, index)``, and an index with a
  non-zero high byte is where a byte-keyed map sorted in the wrong byte
  order would reorder them;
* a matured certificate payout (epoch 0, at its ceasing height);
* an unmatured one (epoch 1, still inside its window);
* a certificate superseded in its window (epoch 0, quality 1), whose
  payouts must never mature.

A second digest pins the sidechain-registry part of the section on a
state built straight on the CCTP state machine (:func:`fixed_registry`):
several sidechains, one ceased, and BTR and CSW nullifiers consumed out of
their sorted order, which the section writes sorted per sidechain.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core.cctp import SidechainStatus, slot_ids
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto.keys import KeyPair
from repro.errors import StorageError
from repro.mainchain.chain import BlockHashChain, MainchainState
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import CertificateTx, SidechainDeclarationTx, TransactionBuilder
from repro.mainchain.utxo import Outpoint
from repro.snark import proving
from repro.storage.codec import decode_mainchain_state, encode_mainchain_state
from tests.test_cctp import PK, fake_block_hash, make_cert, make_config

PARAMS = MainchainParams(pow_zero_bits=2, coinbase_maturity=2)
MINER = KeyPair.from_seed("state-bytes/miner")
ALICE = KeyPair.from_seed("state-bytes/alice")
LEDGER = derive_ledger_id("state-bytes/sc")
CONFIG = make_config(ledger_id=LEDGER, start_block=5, epoch_len=4, submit_len=2)
#: Output count of the funding transaction and BT count of the adopted
#: epoch-0 certificate: both reach past index 255.
WIDE = 300
#: sha256 of ``encode_mainchain_state`` of :func:`fixed_chain`'s tip state.
GOLDEN_DIGEST = "752f261ac80c95781c20ba1cd85500b4231c94a0889d1e49d8d9b8b9c900d595"
#: sha256 of ``encode_mainchain_state`` of :func:`fixed_registry`.
REGISTRY_DIGEST = "602b6444a04d5946bdbd55b2d09fc697e0af6fc7cd9a95a25bab8fe154bec25d"


def _certificate(node: MainchainNode, epoch: int, quality: int, amounts) -> CertificateTx:
    schedule = CONFIG.schedule
    bts = tuple(
        BackwardTransfer(
            receiver_addr=hashlib.blake2b(b"%d/%d" % (epoch, k), digest_size=32).digest(),
            amount=amount,
        )
        for k, amount in enumerate(amounts)
    )
    state = node.state
    h_prev = state.block_hash_at(schedule.last_height(epoch - 1)) if epoch else b"\x00" * 32
    h_last = state.block_hash_at(schedule.last_height(epoch))
    draft = WithdrawalCertificate(LEDGER, epoch, quality, bts, (), proving.Proof(bytes(96)))
    proof = proving.prove(PK, draft.public_input(h_prev, h_last), None)
    return CertificateTx(wcert=WithdrawalCertificate(LEDGER, epoch, quality, bts, (), proof))


@lru_cache(maxsize=None)
def fixed_chain() -> MainchainNode:
    """Blocks 1–14; the caller must not mutate the node."""
    node = MainchainNode(PARAMS)
    node.mine_blocks(MINER.address, 3)
    node.submit_transaction(SidechainDeclarationTx(config=CONFIG))
    node.mine_block(MINER.address)  # 4
    coinbase = next(
        op for op, coin in node.state.utxos.coins_of(MINER.address) if coin.created_height == 1
    )
    funding = TransactionBuilder().spend(coinbase, MINER, PARAMS.block_reward)
    funding.forward_transfer(LEDGER, b"state-bytes", 1_000_000)
    for index in range(WIDE):
        funding.pay(ALICE.address, 1 + index)
    node.submit_transaction(funding.change_to(MINER.address).build())
    node.mine_blocks(MINER.address, 4)  # 5-8: epoch 0
    node.submit_transaction(_certificate(node, 0, 1, (11, 12)))
    node.mine_block(MINER.address)  # 9: quality 1 adopted
    node.submit_transaction(_certificate(node, 0, 2, range(100, 100 + WIDE)))
    node.mine_block(MINER.address)  # 10: quality 2 supersedes it
    node.mine_blocks(MINER.address, 2)  # 11: epoch 0 payouts mature; 12
    node.submit_transaction(_certificate(node, 1, 1, (21, 22, 23)))
    node.mine_blocks(MINER.address, 2)  # 13: epoch 1 adopted, matures at 15; 14
    return node


def test_the_chain_holds_every_shape():
    node = fixed_chain()
    state = node.state
    assert node.height == 14 and len(node.mempool) == 0
    indices = [op.index for op, _ in state.utxos.items()]
    assert max(indices) >= 256
    epoch0 = state.cctp.entry(LEDGER).certificates[0].certificate
    assert epoch0.quality == 2
    matured = [state.utxos.get(Outpoint(epoch0.id, k)) for k in range(WIDE)]
    assert [coin.output.amount for coin in matured] == list(range(100, 100 + WIDE))
    assert all(coin.created_height == coin.maturity_height == 11 for coin in matured)
    assert len(state.pending_payouts) == 1
    epoch1 = state.cctp.entry(LEDGER).certificates[1].certificate
    assert epoch1.id in state.pending_payouts


def test_supply_is_issuance_minus_locked_and_pending_coins():
    node = fixed_chain()
    state = node.state
    pending = sum(sum(payouts[3::2]) for payouts in state.pending_payouts.values())
    assert pending == 21 + 22 + 23
    locked = state.cctp.balance(LEDGER)
    assert state.utxos.total_supply() == PARAMS.block_reward * node.height - locked - pending


def test_encoded_state_matches_the_golden_digest():
    data = encode_mainchain_state(fixed_chain().state)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_DIGEST


def test_decoded_state_encodes_to_the_same_bytes():
    data = encode_mainchain_state(fixed_chain().state)
    assert encode_mainchain_state(decode_mainchain_state(data, PARAMS)) == data


def test_a_payout_off_its_certificate_output_is_refused():
    node = fixed_chain()
    data = encode_mainchain_state(node.state)
    cert_id = node.state.cctp.entry(LEDGER).certificates[1].certificate.id
    first = data.rindex(cert_id + (0).to_bytes(4, "little"))
    moved = data[:first] + cert_id + (1).to_bytes(4, "little") + data[first + 36 :]
    with pytest.raises(StorageError, match="do not match their certificate"):
        decode_mainchain_state(moved, PARAMS)


@pytest.mark.parametrize(("epoch", "written_as"), [(1, 2), (0, 1), (1, 0)])
def test_certificate_epochs_off_zero_to_n_are_refused(epoch, written_as):
    """Adopted epochs are contiguous from 0 and a sidechain's records chain
    in that order, so a list with a gap, a repeat or a swap is corrupt."""
    node = fixed_chain()
    data = encode_mainchain_state(node.state)
    cert = node.state.cctp.entry(LEDGER).certificates[epoch].certificate.encode()
    at = data.index(len(cert).to_bytes(4, "little") + cert) - 8
    assert data[at : at + 8] == epoch.to_bytes(8, "little")
    edited = data[:at] + written_as.to_bytes(8, "little") + data[at + 8 :]
    with pytest.raises(StorageError, match="not 0..n-1 in order"):
        decode_mainchain_state(edited, PARAMS)


def _nullified(kind, cctp, config, nullifier: bytes, amount: int):
    """A BTR or CSW of ``config``'s sidechain proved against its current
    ``last_cert_block_hash``."""
    fields = dict(
        ledger_id=config.ledger_id,
        receiver=hashlib.blake2b(nullifier, digest_size=32).digest(),
        amount=amount,
        nullifier=nullifier,
        proofdata=(),
    )
    draft = kind(**fields, proof=proving.Proof(bytes(proving.PROOF_SIZE)))
    anchor = cctp.entry(config.ledger_id).last_cert_block_hash
    return kind(**fields, proof=proving.prove(PK, draft.public_input(anchor), None))


@lru_cache(maxsize=None)
def fixed_registry() -> MainchainState:
    """Three sidechains on the epoch-0 schedule of :func:`make_config`
    (window 9–10, ceasing at 11), advanced to height 12; the caller must not
    mutate the state.

    * ``a``: BTRs before and after its certificate, quality 1 sealed at 9
      and superseded by quality 2 at 10;
    * ``b``: BTRs, no certificate, ceased at 11, then CSWs;
    * ``c``: certified at 9, no nullifier.
    """
    state = MainchainState(PARAMS)
    cctp = state.cctp
    a, b, c = (
        make_config(ledger_id=derive_ledger_id(f"registry-bytes/{name}"))
        for name in "abc"
    )
    for config in (a, b, c):
        cctp.register_sidechain(config, height=2)
    cctp.process_forward_transfer(
        *(ForwardTransfer(config.ledger_id, b"", 1_000) for config in (a, b, c)),
        height=6,
    )
    cctp.advance_to_height(7)
    cctp.process_btr(
        _nullified(BackwardTransferRequest, cctp, a, b"\x09" * 32, 5),
        _nullified(BackwardTransferRequest, cctp, a, b"\x03" * 32, 6),
        height=7,
    )
    cctp.process_btr(_nullified(BackwardTransferRequest, cctp, b, b"\xee" * 32, 7), height=7)
    cctp.seal_block(fake_block_hash(7))
    bts = tuple(BackwardTransfer(bytes([0xA0 + k]) * 32, 10 + k) for k in range(3))
    cctp.advance_to_height(9)
    cctp.process_certificate(make_cert(0, 1, bts[:1], config=a), 9, fake_block_hash)
    cctp.process_certificate(make_cert(0, 1, bts, config=c), 9, fake_block_hash)
    cctp.seal_block(fake_block_hash(9))
    cctp.advance_to_height(10)
    cctp.process_certificate(make_cert(0, 2, bts, config=a), 10, fake_block_hash)
    cctp.seal_block(fake_block_hash(10))
    assert cctp.advance_to_height(11) == [b.ledger_id]
    cctp.process_btr(_nullified(BackwardTransferRequest, cctp, a, b"\x01" * 32, 8), height=11)
    cctp.seal_block(fake_block_hash(11))
    cctp.advance_to_height(12)
    for nullifier in (b"\x0f" * 32, b"\x02" * 32):
        cctp.process_csw(_nullified(CeasedSidechainWithdrawal, cctp, b, nullifier, 40), 12)
    cctp.seal_block(fake_block_hash(12))
    return state


def test_the_registry_holds_every_shape():
    cctp = fixed_registry().cctp
    entries = dict(cctp.sidechains.items())
    assert len(entries) == 3
    ceased = [e for e in entries.values() if e.status is SidechainStatus.CEASED]
    assert [e.ceased_at_height for e in ceased] == [11]
    superseding = [e.certificates[0] for e in entries.values() if 0 in e.certificates]
    assert sorted(r.certificate.quality for r in superseding) == [1, 2]
    assert all(r.included_in_block is not None for r in superseding)
    # consumed out of order, written sorted per sidechain
    data = encode_mainchain_state(fixed_registry())
    for order in (b"\x01\x03\x09", b"\x02\x0f\xee"):
        positions = [data.index(bytes([n]) * 32) for n in order]
        assert positions == sorted(positions)


def test_encoded_registry_matches_its_golden_digest():
    data = encode_mainchain_state(fixed_registry())
    assert hashlib.sha256(data).hexdigest() == REGISTRY_DIGEST


def test_decoded_registry_encodes_to_the_same_bytes():
    data = encode_mainchain_state(fixed_registry())
    assert encode_mainchain_state(decode_mainchain_state(data, PARAMS)) == data


@lru_cache(maxsize=None)
def superseding_chain() -> MainchainNode:
    """Blocks 1–16: the sidechain adopts epoch 0 at quality 1 (block 9),
    supersedes it at quality 2 inside the window (block 10) and certifies
    nothing after, so it ceases at 15.  At block 10 its deadline slot (15)
    names it twice and the payout slot (11) holds both certificates.  The
    caller must not mutate the node."""
    node = MainchainNode(PARAMS)
    node.mine_blocks(MINER.address, 3)
    node.submit_transaction(SidechainDeclarationTx(config=CONFIG))
    node.mine_block(MINER.address)  # 4
    coinbase = next(
        op for op, coin in node.state.utxos.coins_of(MINER.address) if coin.created_height == 1
    )
    funding = TransactionBuilder().spend(coinbase, MINER, PARAMS.block_reward)
    funding.forward_transfer(LEDGER, b"superseding", 1_000)
    node.submit_transaction(funding.change_to(MINER.address).build())
    node.mine_blocks(MINER.address, 4)  # 5-8: epoch 0
    for quality, amounts in ((1, (11, 12)), (2, (21, 22, 23))):
        node.submit_transaction(_certificate(node, 0, quality, amounts))
        node.mine_block(MINER.address)  # 9, 10
    node.mine_blocks(MINER.address, 6)  # 11: payouts mature; 15: ceases; 16
    return node


def _superseded_pair(node: MainchainNode):
    blocks = node.chain.active_chain()
    return blocks[9].transactions[1].wcert, blocks[10].transactions[1].wcert


def test_a_repeated_deadline_entry_ceases_the_sidechain_once():
    node = superseding_chain()
    state = node.chain.state_at(node.chain.block_at_height(10).hash)
    assert slot_ids(state.cctp._deadlines.get(15)) == [LEDGER, LEDGER]
    ceased = [state.cctp.advance_to_height(height) for height in range(11, 17)]
    assert ceased == [[], [], [], [], [LEDGER], []]
    entry = node.state.cctp.entry(LEDGER)
    assert (entry.status, entry.ceased_at_height) == (SidechainStatus.CEASED, 15)


def test_only_the_superseding_certificate_pays_out_once():
    node = superseding_chain()
    superseded, winner = _superseded_pair(node)
    state = node.chain.state_at(node.chain.block_at_height(10).hash)
    assert slot_ids(state._payout_maturities.get(11)) == [superseded.id, winner.id]
    state = node.state
    paid = sorted(
        (op.txid == winner.id, op.index, coin.output.amount, coin.created_height)
        for op, coin in state.utxos.items()
        if op.txid in (superseded.id, winner.id)
    )
    assert paid == [(True, 0, 21, 11), (True, 1, 22, 11), (True, 2, 23, 11)]
    assert len(state.pending_payouts) == 0


@pytest.mark.parametrize("height", [9, 10, 11, 14])
def test_a_decoded_state_continues_the_chain_to_the_same_digests(height):
    """The decoder rebuilds both slot indexes without the repeats; the
    blocks after ``height`` connect onto the decoded state to the bytes the
    node's own states hold."""
    node = superseding_chain()
    blocks = node.chain.active_chain()
    state = decode_mainchain_state(
        encode_mainchain_state(node.chain.state_at(blocks[height].hash)), PARAMS
    )
    state.height = height
    state.block_hashes = BlockHashChain([block.hash for block in blocks[: height + 1]])
    for block in blocks[height + 1 :]:
        state.connect_block(block)
        expected = encode_mainchain_state(node.chain.state_at(block.hash))
        assert encode_mainchain_state(state) == expected, block.height
    assert state.cctp.entry(LEDGER).ceased_at_height == 15
