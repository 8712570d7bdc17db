"""Miner/peer parity of mainchain block connection.

The miner connects each template candidate once, through the same
per-transaction code peers run (``MainchainState.connect_transaction``), and
records the block with the state it assembled it on.  These tests pin what
that design promises:

* a refused transaction leaves the state byte-identical, for every
  transaction type and every reason it can be refused for;
* whatever the mempool holds, ``mine_block`` returns a block, and a peer
  that receives it reaches the miner's state byte for byte.

Base chain (tip at height 9, the tests build block 10 onwards): sidechain A
certified for epoch 0 in block 9 (safeguard 900), B ceased at height 8 after
one CSW (safeguard 400), C declared but not started, D funded with 1,000 and
not yet certified; one BTR nullifier of A and one CSW nullifier of B spent.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cctp import SidechainStatus
from repro.core.transfers import (
    BackwardTransfer,
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    WithdrawalCertificate,
    derive_ledger_id,
)
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import Signature
from repro.errors import (
    CctpError,
    CertificateRejected,
    DoubleSpend,
    InsufficientFunds,
    NullifierReused,
    SafeguardViolation,
    SidechainActive,
    SidechainAlreadyExists,
    SidechainCeased,
    UnknownSidechain,
    ValidationError,
    VerificationFailure,
)
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.transaction import (
    BtrTx,
    CertificateTx,
    CoinTransaction,
    CswTx,
    SidechainDeclarationTx,
    TransactionBuilder,
    make_coinbase,
)
from repro.mainchain.utxo import Outpoint
from repro.snark import proving
from repro.storage.codec import encode_mainchain_state
from tests.test_cctp import PK, make_config

PARAMS = MainchainParams(pow_zero_bits=2, coinbase_maturity=2)
MINER = KeyPair.from_seed("parity/miner")
ALICE = KeyPair.from_seed("parity/alice")
LA, LB, LC, LD = (derive_ledger_id(f"parity/{name}") for name in "abcd")
UNKNOWN = derive_ledger_id("parity/unknown")
CONFIGS = {
    LA: make_config(ledger_id=LA, start_block=5, epoch_len=4, submit_len=2),
    LB: make_config(ledger_id=LB, start_block=5, epoch_len=2, submit_len=1),
    LC: make_config(ledger_id=LC, start_block=100, epoch_len=4, submit_len=2),
    LD: make_config(ledger_id=LD, start_block=5, epoch_len=4, submit_len=2),
}
TIP = 9
ZERO_HASH = b"\x00" * 32
NULL_PROOF = proving.Proof(data=bytes(proving.PROOF_SIZE))
SPENT_BTR_NULLIFIER = b"\x01" * 32
SPENT_CSW_NULLIFIER = b"\x02" * 32


# -- transaction builders -------------------------------------------------------


def coinbase_outpoint(state, height: int) -> Outpoint:
    for outpoint, coin in state.utxos.coins_of(MINER.address):
        if coin.created_height == height and coin.maturity_height:
            return outpoint
    raise LookupError(f"no coinbase of height {height}")


def payment(outpoint: Outpoint, fts=(), owner=MINER, pay=1_000) -> CoinTransaction:
    builder = TransactionBuilder().spend(outpoint, owner, PARAMS.block_reward)
    for ledger_id, amount in fts:
        builder.forward_transfer(ledger_id, b"parity", amount)
    builder.pay(ALICE.address, pay)
    if pay + sum(amount for _, amount in fts) <= PARAMS.block_reward:
        builder.change_to(owner.address)
    return builder.build()


def certificate(state, ledger_id, epoch, quality, bts=(), proofdata=(), proved=True):
    """A certificate proved against ``state``'s chain (A's schedule for ids
    without a config); an epoch that has not ended is proved against zeros."""
    schedule = CONFIGS.get(ledger_id, CONFIGS[LA]).schedule

    def hash_at(height):
        return state.block_hash_at(height) if 0 <= height <= state.height else ZERO_HASH

    bt_list = tuple(
        BackwardTransfer(receiver_addr=bytes([index + 1]) * 32, amount=amount)
        for index, amount in enumerate(bts)
    )
    draft = WithdrawalCertificate(ledger_id, epoch, quality, bt_list, proofdata, NULL_PROOF)
    if not proved:
        return CertificateTx(wcert=draft)
    public = draft.public_input(
        hash_at(schedule.last_height(epoch - 1)) if epoch else ZERO_HASH,
        hash_at(schedule.last_height(epoch)),
    )
    return CertificateTx(wcert=replace(draft, proof=proving.prove(PK, public, None)))


def btr(ledger_id, nullifier, anchor, amount=5, proofdata=(), proved=True):
    draft = BackwardTransferRequest(
        ledger_id=ledger_id,
        receiver=ALICE.address,
        amount=amount,
        nullifier=nullifier,
        proofdata=proofdata,
        proof=NULL_PROOF,
    )
    if not proved:
        return draft
    return replace(draft, proof=proving.prove(PK, draft.public_input(anchor), None))


def csw(ledger_id, nullifier, amount=50, proved=True) -> CswTx:
    draft = CeasedSidechainWithdrawal(
        ledger_id=ledger_id,
        receiver=ALICE.address,
        amount=amount,
        nullifier=nullifier,
        proofdata=(),
        proof=NULL_PROOF,
    )
    if proved:
        draft = replace(draft, proof=proving.prove(PK, draft.public_input(ZERO_HASH), None))
    return CswTx(csw=draft)


# -- the base chain ---------------------------------------------------------------


@lru_cache(maxsize=None)
def base_blocks() -> tuple:
    node = MainchainNode(PARAMS)
    node.mine_blocks(MINER.address, 3)
    for config in CONFIGS.values():
        node.submit_transaction(SidechainDeclarationTx(config=config))
    node.mine_block(MINER.address)  # 4
    funding = payment(
        coinbase_outpoint(node.state, 1), fts=((LA, 1_000), (LB, 500), (LD, 1_000))
    )
    node.submit_transaction(funding)
    node.mine_block(MINER.address)  # 5
    node.submit_transaction(BtrTx(requests=(btr(LA, SPENT_BTR_NULLIFIER, ZERO_HASH),)))
    node.mine_blocks(MINER.address, 3)  # 6-8; B ceases at 8
    node.submit_transaction(certificate(node.state, LA, 0, 1, bts=(100,)))
    node.submit_transaction(csw(LB, SPENT_CSW_NULLIFIER, amount=100))
    node.mine_block(MINER.address)  # 9
    cctp = node.state.cctp
    assert node.height == TIP and len(node.mempool) == 0
    assert cctp.status(LB) is SidechainStatus.CEASED
    assert [cctp.balance(lid) for lid in (LA, LB, LC, LD)] == [900, 400, 0, 1_000]
    return tuple(node.chain.active_chain()[1:])


def replay() -> MainchainNode:
    """A fresh node that received the base chain from a peer."""
    node = MainchainNode(PARAMS)
    for block in base_blocks():
        assert node.receive_block(block)
    return node


def encoded(state) -> bytes:
    """Canonical bytes of ``state``; certificates adopted in an open block
    are sealed under a placeholder hash, on a copy, so that they encode."""
    sealed = state.copy()
    sealed.cctp.seal_block(ZERO_HASH)
    return encode_mainchain_state(sealed) + b"".join(state.block_hashes)


@pytest.fixture(scope="module")
def base() -> MainchainNode:
    return replay()


# -- a refused transaction leaves the state byte-identical ---------------------------


def _anchor(state) -> bytes:
    """A's ``H(Bw)``: the hash of block 9, which holds its certificate."""
    return state.block_hash_at(TIP)


def _bad_signature(state):
    # txids leave signatures out: pay a different amount than "pay" does
    tx = payment(coinbase_outpoint(state, 2), pay=1_500)
    forged = replace(tx.inputs[0], signature=Signature(e=1, s=1))
    return replace(tx, inputs=(forged,))


def _two_requests(state, second):
    first = btr(LA, b"\x03" * 32, _anchor(state))
    return BtrTx(requests=(first, second))


#: (case, state -> (transactions connected first, refused transaction), error)
REFUSALS = [
    ("coin/unknown input",
     lambda s: ((), payment(Outpoint(b"\xee" * 32, 0))), DoubleSpend),
    ("coin/immature input",
     lambda s: ((), payment(coinbase_outpoint(s, TIP))), ValidationError),
    ("coin/input owned by another key",
     lambda s: ((), payment(coinbase_outpoint(s, 2), owner=ALICE)), ValidationError),
    ("coin/bad signature", lambda s: ((), _bad_signature(s)), ValidationError),
    ("coin/outputs exceed inputs",
     lambda s: ((), payment(coinbase_outpoint(s, 2), pay=2 * PARAMS.block_reward)),
     InsufficientFunds),
    ("coin/same outpoint spent twice",
     lambda s: ((), replace(
         payment(coinbase_outpoint(s, 2)),
         inputs=payment(coinbase_outpoint(s, 2)).inputs * 2)),
     ValidationError),
    ("coin/no inputs", lambda s: ((), CoinTransaction(inputs=(), outputs=())), ValidationError),
    ("coin/coinbase in the body",
     lambda s: ((), make_coinbase(MINER.address, 1, TIP + 1, b"extra")), ValidationError),
    ("coin/last FT to an unknown sidechain",
     lambda s: ((), payment(coinbase_outpoint(s, 2), fts=((LA, 10), (UNKNOWN, 10)))),
     UnknownSidechain),
    ("coin/last FT to a ceased sidechain",
     lambda s: ((), payment(coinbase_outpoint(s, 2), fts=((LA, 10), (LB, 10)))),
     SidechainCeased),
    ("coin/last FT to an unstarted sidechain",
     lambda s: ((), payment(coinbase_outpoint(s, 2), fts=((LA, 10), (LC, 10)))),
     CctpError),
    ("declaration/ledger id taken",
     lambda s: ((), SidechainDeclarationTx(config=CONFIGS[LA])), SidechainAlreadyExists),
    ("declaration/start block not after the block",
     lambda s: ((), SidechainDeclarationTx(config=make_config(
         ledger_id=derive_ledger_id("parity/late"), start_block=TIP + 1))),
     CctpError),
    ("certificate/unknown sidechain",
     lambda s: ((), certificate(s, UNKNOWN, 0, 1)), UnknownSidechain),
    ("certificate/ceased sidechain",
     lambda s: ((), certificate(s, LB, 1, 1)), CertificateRejected),
    ("certificate/outside its window",
     lambda s: ((), certificate(s, LA, 1, 1)), CertificateRejected),
    ("certificate/quality not above the adopted one",
     lambda s: ((), certificate(s, LA, 0, 1, bts=(7,))), CertificateRejected),
    ("certificate/proofdata off schema",
     lambda s: ((), certificate(s, LA, 0, 2, proofdata=(7,))), CertificateRejected),
    ("certificate/bad proof",
     lambda s: ((), certificate(s, LA, 0, 2, proved=False)), CertificateRejected),
    ("certificate/BT list over the safeguard",
     lambda s: ((), certificate(s, LD, 0, 1, bts=(1_300,))), SafeguardViolation),
    ("certificate/superseding BT list over the refunded safeguard",
     lambda s: ((), certificate(s, LA, 0, 2, bts=(1_300,))), SafeguardViolation),
    ("btr/no requests", lambda s: ((), BtrTx(requests=())), ValidationError),
    ("btr/second request: unknown sidechain",
     lambda s: ((), _two_requests(s, btr(UNKNOWN, b"\x04" * 32, ZERO_HASH))),
     UnknownSidechain),
    ("btr/second request: ceased sidechain",
     lambda s: ((), _two_requests(s, btr(LB, b"\x04" * 32, ZERO_HASH))), SidechainCeased),
    ("btr/second request: proofdata off schema",
     lambda s: ((), _two_requests(s, btr(LA, b"\x04" * 32, _anchor(s), proofdata=(1,)))),
     CctpError),
    ("btr/second request: zero amount",
     lambda s: ((), _two_requests(s, btr(LA, b"\x04" * 32, _anchor(s), amount=0))),
     CctpError),
    ("btr/second request: nullifier already spent",
     lambda s: ((), _two_requests(s, btr(LA, SPENT_BTR_NULLIFIER, _anchor(s)))),
     NullifierReused),
    ("btr/second request: nullifier of the first",
     lambda s: ((), _two_requests(s, btr(LA, b"\x03" * 32, _anchor(s), amount=6))),
     NullifierReused),
    ("btr/second request: bad proof",
     lambda s: ((), _two_requests(s, btr(LA, b"\x04" * 32, _anchor(s), proved=False))),
     VerificationFailure),
    ("btr/sidechain certified earlier in the block",
     lambda s: (
         (certificate(s, LA, 0, 2, bts=(50,)),),
         BtrTx(requests=(btr(LA, b"\x04" * 32, _anchor(s)),)),
     ),
     VerificationFailure),
    ("csw/active sidechain", lambda s: ((), csw(LA, b"\x05" * 32)), SidechainActive),
    ("csw/unknown sidechain", lambda s: ((), csw(UNKNOWN, b"\x05" * 32)), UnknownSidechain),
    ("csw/zero amount", lambda s: ((), csw(LB, b"\x05" * 32, amount=0)), CctpError),
    ("csw/nullifier already spent",
     lambda s: ((), csw(LB, SPENT_CSW_NULLIFIER)), NullifierReused),
    ("csw/bad proof", lambda s: ((), csw(LB, b"\x05" * 32, proved=False)), VerificationFailure),
    ("csw/over the safeguard",
     lambda s: ((), csw(LB, b"\x05" * 32, amount=401)), SafeguardViolation),
]


def _open_block(base: MainchainNode):
    state = base.chain.state.copy()
    state.begin_block(TIP + 1)
    return state


@pytest.mark.parametrize(
    "build, error", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_refused_transaction_leaves_state_byte_identical(base, build, error):
    state = _open_block(base)
    prelude, refused = build(state)
    for tx in prelude:
        state.connect_transaction(tx, TIP + 1)
    before = encoded(state)
    with pytest.raises(error):
        state.connect_transaction(refused, TIP + 1)
    assert encoded(state) == before


#: The accepted halves of the multi-part refusals above, alone: each moves
#: the state, so the refusals are refused at their *last* part.
ACCEPTED = [
    ("coin with one FT", lambda s: payment(coinbase_outpoint(s, 2), fts=((LA, 10),))),
    ("one BTR request", lambda s: BtrTx(requests=(btr(LA, b"\x03" * 32, _anchor(s)),))),
    ("superseding certificate", lambda s: certificate(s, LA, 0, 2, bts=(50,))),
    ("CSW", lambda s: csw(LB, b"\x05" * 32)),
]


@pytest.mark.parametrize("build", [c[1] for c in ACCEPTED], ids=[c[0] for c in ACCEPTED])
def test_accepted_part_moves_the_state(base, build):
    state = _open_block(base)
    tx = build(state)
    before = encoded(state)
    state.connect_transaction(tx, TIP + 1)
    assert encoded(state) != before


# -- miner vs peer, on random mempools ---------------------------------------------

#: name -> state -> transaction; honest and hostile items mixed, several of
#: them conflicting with each other (same coin, same sidechain's certificate).
MEMPOOL_ITEMS = {
    "pay": lambda s: payment(coinbase_outpoint(s, 2)),
    "pay the same coin again": lambda s: payment(coinbase_outpoint(s, 2), pay=2_000),
    "FT to A": lambda s: payment(coinbase_outpoint(s, 3), fts=((LA, 700),)),
    "FT to D": lambda s: payment(coinbase_outpoint(s, 4), fts=((LD, 300),)),
    "supersede A": lambda s: certificate(s, LA, 0, 2, bts=(50,)),
    "supersede A again": lambda s: certificate(s, LA, 0, 3, bts=(60,)),
    "certify D": lambda s: certificate(s, LD, 0, 1, bts=(200,)),
    "BTR for A": lambda s: BtrTx(requests=(btr(LA, b"\x06" * 32, _anchor(s)),)),
    "CSW from B": lambda s: csw(LB, b"\x07" * 32),
    "declare E": lambda s: SidechainDeclarationTx(
        config=make_config(ledger_id=derive_ledger_id("parity/e"), start_block=20)
    ),
    "unknown input": lambda s: payment(Outpoint(b"\xee" * 32, 0)),
    "immature input": lambda s: payment(coinbase_outpoint(s, TIP)),
    "bad signature": _bad_signature,
    "stale certificate": lambda s: certificate(s, LA, 0, 1, bts=(7,)),
    "lower-quality certificate": lambda s: certificate(s, LA, 0, 0),
    "certificate out of window": lambda s: certificate(s, LA, 1, 1),
    "BT list over the safeguard": lambda s: certificate(s, LD, 0, 2, bts=(5_000,)),
    "replayed BTR nullifier": lambda s: BtrTx(
        requests=(btr(LA, SPENT_BTR_NULLIFIER, _anchor(s)),)
    ),
    "replayed CSW nullifier": lambda s: csw(LB, SPENT_CSW_NULLIFIER),
    "BTR on a stale anchor": lambda s: BtrTx(requests=(btr(LA, b"\x08" * 32, ZERO_HASH),)),
    "BTR reusing its own nullifier": lambda s: _two_requests(
        s, btr(LA, b"\x03" * 32, _anchor(s), amount=6)
    ),
    "FT to an unknown sidechain": lambda s: payment(
        coinbase_outpoint(s, 5), fts=((UNKNOWN, 10),)
    ),
    "FT to an unstarted sidechain": lambda s: payment(coinbase_outpoint(s, 6), fts=((LC, 10),)),
    "FT to a ceased sidechain": lambda s: payment(coinbase_outpoint(s, 7), fts=((LB, 10),)),
    "FT to D, then to ceased B": lambda s: payment(
        coinbase_outpoint(s, 8), fts=((LD, 500), (LB, 500))
    ),
    "coinbase in the mempool": lambda s: make_coinbase(ALICE.address, 1, TIP + 1),
    "no inputs": lambda s: CoinTransaction(inputs=(), outputs=()),
}
ITEM_NAMES = sorted(MEMPOOL_ITEMS)


@lru_cache(maxsize=None)
def mempool_item(name: str):
    return MEMPOOL_ITEMS[name](replay().state)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    picks=st.lists(st.sampled_from(ITEM_NAMES), unique=True, max_size=14),
    blocks=st.integers(min_value=1, max_value=3),
)
def test_peer_reaches_the_miners_state_on_any_mempool(picks, blocks):
    miner, peer = replay(), replay()
    for name in picks:
        miner.submit_transaction(mempool_item(name))
    for _ in range(blocks):
        block = miner.mine_block(MINER.address)  # never raises on mempool content
        assert peer.receive_block(block)
        assert peer.chain.tip.hash == block.hash
        assert encoded(peer.state) == encoded(miner.state)
        assert all(tx.txid not in miner.mempool for tx in block.transactions)
