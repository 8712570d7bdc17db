"""Unit tests for blocks, PoW, chain state and reorgs (repro.mainchain)."""

import pytest

from repro import observability
from repro.errors import OrphanBlock, ReorgBelowHorizon, UnknownBlock, ValidationError
from repro.mainchain.block import Block, BlockHeader, transactions_merkle_root
from repro.mainchain.chain import REORG_HORIZON, Blockchain
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.mainchain.pow import block_work, meets_target, mine_header
from repro.mainchain.transaction import TransactionBuilder, make_coinbase
from repro.mainchain.validation import (
    compute_sc_txs_commitment,
    validate_block_structure,
)
from repro.observability import export

PARAMS = MainchainParams(pow_zero_bits=2, coinbase_maturity=1)


def make_block(parent: Block, params=PARAMS, miner_addr=b"\xaa" * 32, txs=(), ts=1):
    coinbase = make_coinbase(miner_addr, params.block_reward, parent.height + 1)
    transactions = (coinbase, *txs)
    header = BlockHeader(
        prev_hash=parent.hash,
        height=parent.height + 1,
        merkle_root=transactions_merkle_root(transactions),
        sc_txs_commitment=compute_sc_txs_commitment(transactions),
        timestamp=ts,
        target_bits=params.pow_zero_bits,
    )
    return Block(header=mine_header(header), transactions=transactions)


class TestPow:
    def test_meets_target(self):
        assert meets_target(b"\x00" + b"\xff" * 31, 8)
        assert not meets_target(b"\x01" + b"\xff" * 31, 8)
        assert meets_target(b"\xff" * 32, 0)

    def test_block_work_doubles_per_bit(self):
        assert block_work(5) == 2 * block_work(4)

    def test_mine_header_finds_nonce(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        assert meets_target(block.hash, PARAMS.pow_zero_bits)

    def test_mine_header_gives_up(self):
        header = BlockHeader(
            prev_hash=b"\x00" * 32,
            height=1,
            merkle_root=b"\x00" * 32,
            sc_txs_commitment=b"\x00" * 32,
            timestamp=0,
            target_bits=30,
        )
        with pytest.raises(ValidationError):
            mine_header(header, max_attempts=4)


class TestStructureValidation:
    def test_valid_block_passes(self):
        chain = Blockchain(PARAMS)
        validate_block_structure(make_block(chain.genesis), PARAMS)

    def test_missing_coinbase_rejected(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        headless = Block(header=block.header, transactions=block.transactions[1:])
        with pytest.raises(ValidationError):
            validate_block_structure(headless, PARAMS)

    def test_wrong_merkle_root_rejected(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        other = make_coinbase(b"\xbb" * 32, PARAMS.block_reward, 1)
        swapped = Block(header=block.header, transactions=(other,))
        with pytest.raises(ValidationError):
            validate_block_structure(swapped, PARAMS)

    def test_two_coinbases_rejected(self):
        chain = Blockchain(PARAMS)
        cb2 = make_coinbase(b"\xbb" * 32, PARAMS.block_reward, 1)
        block = make_block(chain.genesis, txs=(cb2,))
        with pytest.raises(ValidationError):
            validate_block_structure(block, PARAMS)

    def test_wrong_difficulty_rejected(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis, params=MainchainParams(pow_zero_bits=1))
        with pytest.raises(ValidationError):
            validate_block_structure(block, PARAMS)


class TestChainExtension:
    def test_add_block_moves_tip(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        assert chain.add_block(block)
        assert chain.tip.hash == block.hash
        assert chain.height == 1

    def test_orphan_rejected(self):
        chain = Blockchain(PARAMS)
        b1 = make_block(chain.genesis)
        b2 = make_block(b1)
        with pytest.raises(OrphanBlock):
            chain.add_block(b2)

    def test_duplicate_add_is_noop(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        chain.add_block(block)
        assert chain.add_block(block)  # already the tip

    def test_wrong_height_rejected(self):
        chain = Blockchain(PARAMS)
        block = make_block(chain.genesis)
        bad = Block(
            header=BlockHeader(
                prev_hash=chain.genesis.hash,
                height=5,
                merkle_root=block.header.merkle_root,
                sc_txs_commitment=block.header.sc_txs_commitment,
                timestamp=1,
                target_bits=PARAMS.pow_zero_bits,
                nonce=block.header.nonce,
            ),
            transactions=block.transactions,
        )
        with pytest.raises(ValidationError):
            chain.add_block(bad)

    def test_coinbase_overpay_rejected(self):
        chain = Blockchain(PARAMS)
        coinbase = make_coinbase(b"\xaa" * 32, PARAMS.block_reward + 1, 1)
        header = BlockHeader(
            prev_hash=chain.genesis.hash,
            height=1,
            merkle_root=transactions_merkle_root((coinbase,)),
            sc_txs_commitment=compute_sc_txs_commitment((coinbase,)),
            timestamp=1,
            target_bits=PARAMS.pow_zero_bits,
        )
        block = Block(header=mine_header(header), transactions=(coinbase,))
        with pytest.raises(ValidationError):
            chain.add_block(block)

    def test_cumulative_work_accumulates(self):
        chain = Blockchain(PARAMS)
        b1 = make_block(chain.genesis)
        chain.add_block(b1)
        assert chain.cumulative_work(b1.hash) == block_work(PARAMS.pow_zero_bits)


class TestSpending:
    def _funded_node(self, keys):
        node = MainchainNode(PARAMS)
        node.mine_blocks(keys["miner"].address, 2)
        return node

    def test_spend_coinbase(self, keys):
        node = self._funded_node(keys)
        op, coin = node.state.utxos.coins_of(keys["miner"].address)[0]
        tx = (
            TransactionBuilder()
            .spend(op, keys["miner"], coin.output.amount)
            .pay(keys["alice"].address, 100)
            .change_to(keys["miner"].address)
            .build()
        )
        node.submit_transaction(tx)
        node.mine_block(keys["miner"].address)
        assert node.state.utxos.balance_of(keys["alice"].address) == 100

    def test_immature_coinbase_not_spendable(self, keys):
        params = MainchainParams(pow_zero_bits=2, coinbase_maturity=10)
        node = MainchainNode(params)
        node.mine_block(keys["miner"].address)
        op, coin = node.state.utxos.coins_of(keys["miner"].address)[0]
        tx = (
            TransactionBuilder()
            .spend(op, keys["miner"], coin.output.amount)
            .pay(keys["alice"].address, coin.output.amount)
            .build()
        )
        node.submit_transaction(tx)
        node.mine_block(keys["miner"].address)
        # the tx was dropped from the template: alice got nothing
        assert node.state.utxos.balance_of(keys["alice"].address) == 0

    def test_fee_goes_to_miner(self, keys):
        node = self._funded_node(keys)
        op, coin = node.state.utxos.coins_of(keys["miner"].address)[0]
        tx = (
            TransactionBuilder()
            .spend(op, keys["miner"], coin.output.amount)
            .pay(keys["alice"].address, coin.output.amount - 7)
            .build()  # 7 units of fee
        )
        node.submit_transaction(tx)
        block = node.mine_block(keys["miner"].address)
        coinbase = block.transactions[0]
        assert coinbase.outputs[0].amount == PARAMS.block_reward + 7

    def test_supply_conservation(self, keys):
        node = self._funded_node(keys)
        op, coin = node.state.utxos.coins_of(keys["miner"].address)[0]
        tx = (
            TransactionBuilder()
            .spend(op, keys["miner"], coin.output.amount)
            .pay(keys["alice"].address, 100)
            .change_to(keys["miner"].address)
            .build()
        )
        node.submit_transaction(tx)
        node.mine_block(keys["miner"].address)
        expected = PARAMS.block_reward * node.height
        assert node.state.utxos.total_supply() == expected


class TestForkChoiceAndReorg:
    def test_heavier_fork_wins(self, keys):
        chain = Blockchain(PARAMS)
        a1 = make_block(chain.genesis, ts=1)
        chain.add_block(a1)
        a2 = make_block(a1, ts=2)
        chain.add_block(a2)
        # competing fork from genesis, longer
        b1 = make_block(chain.genesis, ts=10)
        b2 = make_block(b1, ts=11)
        b3 = make_block(b2, ts=12)
        assert not chain.add_block(b1)
        assert not chain.add_block(b2)  # tie: first-seen (a-chain) stays
        assert chain.tip.hash == a2.hash
        assert chain.add_block(b3)  # now heavier
        assert chain.tip.hash == b3.hash
        assert chain.height == 3

    def test_reorg_switches_utxo_state(self, keys):
        chain = Blockchain(PARAMS)
        a1 = make_block(chain.genesis, miner_addr=keys["alice"].address, ts=1)
        chain.add_block(a1)
        assert chain.state.utxos.balance_of(keys["alice"].address) > 0
        b1 = make_block(chain.genesis, miner_addr=keys["bob"].address, ts=10)
        b2 = make_block(b1, miner_addr=keys["bob"].address, ts=11)
        chain.add_block(b1)
        chain.add_block(b2)
        # after the reorg alice's coinbase is orphaned
        assert chain.state.utxos.balance_of(keys["alice"].address) == 0
        assert chain.state.utxos.balance_of(keys["bob"].address) == 2 * PARAMS.block_reward

    def test_fork_states_are_isolated(self, keys):
        chain = Blockchain(PARAMS)
        a1 = make_block(chain.genesis, miner_addr=keys["alice"].address, ts=1)
        b1 = make_block(chain.genesis, miner_addr=keys["bob"].address, ts=2)
        chain.add_block(a1)
        chain.add_block(b1)
        assert chain.state_at(a1.hash).utxos.balance_of(keys["alice"].address) > 0
        assert chain.state_at(b1.hash).utxos.balance_of(keys["alice"].address) == 0

    def test_state_at_returns_defensive_copy(self, keys):
        chain = Blockchain(PARAMS)
        a1 = make_block(chain.genesis, miner_addr=keys["alice"].address, ts=1)
        chain.add_block(a1)
        snapshot = chain.state_at(a1.hash)
        balance = snapshot.utxos.balance_of(keys["alice"].address)
        assert balance > 0
        # mutating the returned state must not corrupt the recorded branch
        for outpoint, _coin in snapshot.utxos.coins_of(keys["alice"].address):
            snapshot.utxos.spend(outpoint)
        assert snapshot.utxos.balance_of(keys["alice"].address) == 0
        fresh = chain.state_at(a1.hash)
        assert fresh.utxos.balance_of(keys["alice"].address) == balance

    def test_active_chain_listing(self):
        chain = Blockchain(PARAMS)
        b1 = make_block(chain.genesis)
        b2 = make_block(b1)
        chain.add_block(b1)
        chain.add_block(b2)
        heights = [b.height for b in chain.active_chain()]
        assert heights == [0, 1, 2]
        assert chain.block_at_height(1).hash == b1.hash


def _refused_below_horizon() -> float:
    flat = export.flatten(observability.registry())
    return flat.get('repro_mainchain_blocks_refused_total{reason="below_horizon"}', 0)


class TestReorgHorizon:
    """A block more than ``REORG_HORIZON`` below the tip keeps no state: a
    fork off it is refused, a fork within it is followed."""

    HORIZON = REORG_HORIZON

    def _chain(self, length: int) -> tuple[Blockchain, list[Block]]:
        chain = Blockchain(PARAMS)
        blocks = [chain.genesis]
        for i in range(length):
            blocks.append(make_block(blocks[-1], ts=1 + i))
            chain.add_block(blocks[-1])
        return chain, blocks

    @staticmethod
    def _branch(chain: Blockchain, root: Block, length: int) -> list[Block]:
        branch = [root]
        for i in range(length):
            branch.append(make_block(branch[-1], miner_addr=b"\xbb" * 32, ts=1000 + i))
            chain.add_block(branch[-1])
        return branch[1:]

    def test_a_reorg_inside_the_horizon_is_followed(self):
        chain, blocks = self._chain(self.HORIZON + 2)
        depth = self.HORIZON - 1
        branch = self._branch(chain, blocks[-1 - depth], depth + 1)
        assert chain.tip.hash == branch[-1].hash
        assert chain.block_at_height(blocks[-1].height).hash == branch[-2].hash

    def test_a_reorg_below_the_horizon_is_refused_and_counted(self):
        chain, blocks = self._chain(self.HORIZON + 2)
        before = _refused_below_horizon()
        fork = make_block(blocks[-1 - (self.HORIZON + 1)], miner_addr=b"\xbb" * 32, ts=1000)
        with pytest.raises(ReorgBelowHorizon, match="pruned"):
            chain.add_block(fork)
        assert issubclass(ReorgBelowHorizon, OrphanBlock)
        assert _refused_below_horizon() == before + 1
        assert fork.hash not in chain and chain.tip.hash == blocks[-1].hash

    def test_a_stale_side_branch_loses_its_states(self):
        chain, blocks = self._chain(3)
        (side,) = self._branch(chain, blocks[1], 1)
        assert chain.tip.hash == blocks[-1].hash
        assert chain.state_at(side.hash).height == 2
        for i in range(self.HORIZON):
            blocks.append(make_block(blocks[-1], ts=100 + i))
            chain.add_block(blocks[-1])
        assert chain.height - side.height == self.HORIZON + 1
        with pytest.raises(UnknownBlock, match="pruned"):
            chain.state_at(side.hash)
        assert chain.block(side.hash) == side
        kept = [r for r in chain._records.values() if r.state is not None]
        heights = sorted(r.block.height for r in kept)
        assert heights == list(range(chain.height - self.HORIZON, chain.height + 1))

    def test_state_at_a_pruned_block_raises_unknown_block(self):
        chain, blocks = self._chain(self.HORIZON + 2)
        assert chain.state_at(blocks[2].hash).height == 2  # exactly the horizon below
        with pytest.raises(UnknownBlock, match="pruned"):
            chain.state_at(blocks[1].hash)
        # the blocks themselves stay stored
        assert chain.active_chain() == blocks
        assert chain.block_at_height(1) == blocks[1]
