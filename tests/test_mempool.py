"""Unit tests for the mainchain mempool (repro.mainchain.mempool)."""

import pytest

from repro.core.transfers import ForwardTransfer, WithdrawalCertificate
from repro.errors import ValidationError
from repro.mainchain.mempool import Mempool
from repro.mainchain.transaction import (
    CertificateTx,
    CoinTransaction,
    make_coinbase,
)
from repro.snark import proving


def tx(n: int):
    return make_coinbase(bytes([n]) * 32, 50, n)


class TestMempool:
    def test_submit_and_contains(self):
        pool = Mempool()
        t = tx(1)
        pool.submit(t)
        assert t.txid in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self):
        pool = Mempool()
        t = tx(1)
        pool.submit(t)
        with pytest.raises(ValidationError):
            pool.submit(t)

    def test_fifo_order_preserved(self):
        pool = Mempool()
        txs = [tx(i) for i in range(5)]
        for t in txs:
            pool.submit(t)
        assert [t.txid for t in pool.take(10)] == [t.txid for t in txs]

    def test_take_respects_limit(self):
        pool = Mempool()
        for i in range(5):
            pool.submit(tx(i))
        assert len(pool.take(3)) == 3
        assert len(pool) == 5  # take does not remove

    def test_remove_and_remove_confirmed(self):
        pool = Mempool()
        txs = [tx(i) for i in range(3)]
        for t in txs:
            pool.submit(t)
        pool.remove(txs[0].txid)
        assert txs[0].txid not in pool
        pool.remove_confirmed(txs[1:])
        assert len(pool) == 0

    def test_remove_missing_is_noop(self):
        Mempool().remove(b"\x00" * 32)

    def test_clear(self):
        pool = Mempool()
        pool.submit(tx(1))
        pool.clear()
        assert len(pool) == 0


# -- per-sidechain indexing ---------------------------------------------------------

LEDGER_A = b"\xaa" * 32
LEDGER_B = b"\xbb" * 32


def cert_tx(ledger_id: bytes, epoch: int, quality: int = 1):
    wcert = WithdrawalCertificate(
        ledger_id=ledger_id,
        epoch_id=epoch,
        quality=quality,
        bt_list=(),
        proofdata=(),
        proof=proving.Proof(data=bytes([epoch % 251]) * proving.PROOF_SIZE),
    )
    return CertificateTx(wcert=wcert)


def ft_tx(ledger_id: bytes, amount: int):
    return CoinTransaction(
        inputs=(),
        outputs=(),
        forward_transfers=(
            ForwardTransfer(
                ledger_id=ledger_id,
                receiver_metadata=amount.to_bytes(32, "big"),
                amount=amount,
            ),
        ),
    )


class TestSidechainIndexes:
    def test_pending_for_partitions_by_ledger(self):
        pool = Mempool()
        a1, b1, a2 = ft_tx(LEDGER_A, 1), ft_tx(LEDGER_B, 2), cert_tx(LEDGER_A, 0)
        plain = tx(9)  # pure coin move: indexed nowhere
        for t in (a1, b1, a2, plain):
            pool.submit(t)
        assert [t.txid for t in pool.pending_for(LEDGER_A)] == [a1.txid, a2.txid]
        assert [t.txid for t in pool.pending_for(LEDGER_B)] == [b1.txid]
        assert pool.pending_for(b"\x00" * 32) == []

    def test_certificates_for_filters_to_certs_in_fifo_order(self):
        pool = Mempool()
        c1, c2 = cert_tx(LEDGER_A, 0), cert_tx(LEDGER_A, 1)
        pool.submit(ft_tx(LEDGER_A, 5))
        pool.submit(c1)
        pool.submit(cert_tx(LEDGER_B, 0))
        pool.submit(c2)
        assert [t.txid for t in pool.certificates_for(LEDGER_A)] == [
            c1.txid,
            c2.txid,
        ]

    def test_remove_cleans_indexes(self):
        pool = Mempool()
        c = cert_tx(LEDGER_A, 0)
        pool.submit(c)
        pool.remove(c.txid)
        assert pool.pending_for(LEDGER_A) == []
        assert pool.certificates_for(LEDGER_A) == []
        # empty buckets are deleted outright, not left as husks
        assert pool._by_ledger == {} and pool._certs_by_ledger == {}
        assert pool._meta == {}

    def test_remove_confirmed_single_pass_consistency(self):
        pool = Mempool()
        txs = [cert_tx(LEDGER_A, i) for i in range(4)] + [ft_tx(LEDGER_B, 7)]
        for t in txs:
            pool.submit(t)
        pool.remove_confirmed(txs[:3])
        assert len(pool) == 2
        assert [t.txid for t in pool.certificates_for(LEDGER_A)] == [txs[3].txid]
        assert [t.txid for t in pool.pending_for(LEDGER_B)] == [txs[4].txid]

    def test_clear_resets_indexes(self):
        pool = Mempool()
        pool.submit(cert_tx(LEDGER_A, 0))
        pool.clear()
        assert pool._by_ledger == {} and pool._certs_by_ledger == {}
        assert pool._meta == {}
        assert pool.pending_for(LEDGER_A) == []

    def test_removal_scales_linearly_not_quadratically(self):
        """remove_confirmed is one dict op per confirmed tx, regardless of
        pool size — the old implementation rescanned the whole pool per tx."""
        pool = Mempool()
        txs = [ft_tx(LEDGER_A, i + 1) for i in range(500)]
        for t in txs:
            pool.submit(t)
        import timeit

        small = timeit.timeit(lambda: pool.remove_confirmed(txs[:1]), number=1)
        # removing 400 must not cost ~400x removing 1 plus rescans
        big = timeit.timeit(lambda: pool.remove_confirmed(txs[1:]), number=1)
        assert len(pool) == 0
        # generous bound: pure O(n) work for 499 removals vs 1 removal.
        # A quadratic rescan would blow far past this.
        assert big < max(small, 1e-4) * 5000


class TestSameSidechainCertificateTemplates:
    """Regression: two valid certificates for the same sidechain in one
    mempool must not crash template assembly (the commitment tree admits one
    certificate per sidechain per block) — the runner-up stays queued and
    mines into the following block."""

    def test_second_cert_waits_for_the_next_block(self):
        from repro.mainchain.node import MainchainNode
        from repro.mainchain.params import MainchainParams
        from repro.mainchain.transaction import SidechainDeclarationTx
        from tests.test_cctp import PK, make_config

        node = MainchainNode(MainchainParams(pow_zero_bits=2, coinbase_maturity=1))
        miner = b"\x05" * 32
        node.mine_blocks(miner, 2)
        config = make_config(start_block=node.height + 2, epoch_len=6, submit_len=3)
        node.submit_transaction(SidechainDeclarationTx(config=config))
        node.mine_blocks(miner, 1)

        schedule = config.schedule
        while node.height < schedule.first_height(1) - 1:
            node.mine_blocks(miner, 1)

        def valid_cert(quality: int):
            draft = WithdrawalCertificate(
                ledger_id=config.ledger_id,
                epoch_id=0,
                quality=quality,
                bt_list=(),
                proofdata=(),
                proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
            )
            public = draft.public_input(
                b"\x00" * 32,
                node.state.block_hash_at(schedule.last_height(0)),
            )
            return WithdrawalCertificate(
                ledger_id=draft.ledger_id,
                epoch_id=draft.epoch_id,
                quality=draft.quality,
                bt_list=draft.bt_list,
                proofdata=draft.proofdata,
                proof=proving.prove(PK, public, None),
            )

        low, high = CertificateTx(wcert=valid_cert(1)), CertificateTx(
            wcert=valid_cert(2)
        )
        node.submit_transaction(low)
        node.submit_transaction(high)

        first = node.mine_blocks(miner, 1)[0]  # must not raise
        in_first = [t for t in first.transactions if isinstance(t, CertificateTx)]
        assert [t.txid for t in in_first] == [low.txid]
        assert high.txid in node.mempool  # runner-up stayed queued

        second = node.mine_blocks(miner, 1)[0]
        in_second = [t for t in second.transactions if isinstance(t, CertificateTx)]
        assert [t.txid for t in in_second] == [high.txid]
        assert high.txid not in node.mempool
        adopted = node.state.cctp.adopted_certificate(config.ledger_id, 0)
        assert adopted is not None and adopted.quality == 2

    def test_superseding_certificate_then_btr_on_the_parent_hash(self):
        """A quality-2 certificate for the epoch whose quality-1 certificate
        sits in the parent block, then a BTR proved against the parent's hash:
        the certificate is adopted, the BTR dropped (its proof would have to
        commit to the hash of the block that carries the certificate), and
        every mined block is one a peer accepts."""
        from tests.test_mining_parity import LA, MINER, TIP, btr, certificate, replay
        from repro.mainchain.transaction import BtrTx

        miner, peer = replay(), replay()
        parent_hash = miner.chain.tip.hash
        superseding = certificate(miner.state, LA, 0, 2, bts=(50,))
        request = BtrTx(requests=(btr(LA, b"\x0a" * 32, parent_hash),))
        miner.submit_transaction(superseding)
        miner.submit_transaction(request)

        blocks = [miner.mine_block(MINER.address) for _ in range(3)]  # must not raise
        for block in blocks:
            assert peer.receive_block(block)
        carried = [tx.txid for block in blocks for tx in block.transactions]
        assert [tx.txid for tx in blocks[0].transactions[1:]] == [superseding.txid]
        assert request.txid not in carried and request.txid not in miner.mempool
        assert miner.state.cctp.adopted_certificate(LA, 0).quality == 2
        record = miner.state.cctp.entry(LA).certificates[0]
        assert record.included_in_block == blocks[0].hash == miner.chain.block_at_height(TIP + 1).hash

    def test_refused_forward_transfer_leaves_no_deposit_behind(self):
        """A coin transaction carrying FT(D, 500) then FT(ceased B, 500),
        followed by a certificate of D withdrawing 1,300 against a balance of
        1,000: both are dropped — the refused coin transaction credits
        nothing, so the certificate overdraws the safeguard."""
        from tests.test_mining_parity import (
            LB, LD, MINER, certificate, coinbase_outpoint, payment, replay,
        )

        miner, peer = replay(), replay()
        coin = payment(coinbase_outpoint(miner.state, 2), fts=((LD, 500), (LB, 500)))
        overdraw = certificate(miner.state, LD, 0, 1, bts=(1_300,))
        miner.submit_transaction(coin)
        miner.submit_transaction(overdraw)

        blocks = [miner.mine_block(MINER.address) for _ in range(2)]  # must not raise
        for block in blocks:
            assert peer.receive_block(block)
            assert len(block.transactions) == 1  # the coinbase alone
        assert len(miner.mempool) == 0
        assert miner.state.cctp.balance(LD) == 1_000
        assert miner.state.cctp.adopted_certificate(LD, 0) is None
