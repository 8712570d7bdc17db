"""Unit tests for Latus consensus (repro.latus.consensus) — §5.1, Fig. 5."""

import pytest

from repro.errors import ConsensusError
from repro.latus.consensus.ouroboros import (
    LeaderSchedule,
    SlotPosition,
    genesis_seed,
    next_epoch_seed,
    slot_leader,
)
from repro.latus.consensus.stake import StakeDistribution
from repro.latus.utxo import Utxo


class TestStakeDistribution:
    def test_from_mapping_drops_zero(self):
        sd = StakeDistribution.from_mapping({1: 10, 2: 0, 3: 5})
        assert sd.total == 15
        assert sd.stake_of(2) == 0
        assert sd.stake_of(1) == 10

    def test_from_utxos_aggregates(self):
        utxos = [
            Utxo(addr=1, amount=10, nonce=1),
            Utxo(addr=1, amount=5, nonce=2),
            Utxo(addr=2, amount=7, nonce=3),
        ]
        sd = StakeDistribution.from_utxos(utxos)
        assert sd.stake_of(1) == 15
        assert sd.stake_of(2) == 7

    def test_owner_at_ranges(self):
        sd = StakeDistribution.from_mapping({1: 10, 2: 5})
        assert sd.owner_at(0) == 1
        assert sd.owner_at(9) == 1
        assert sd.owner_at(10) == 2
        assert sd.owner_at(14) == 2

    def test_owner_at_bounds(self):
        sd = StakeDistribution.from_mapping({1: 10})
        with pytest.raises(ConsensusError):
            sd.owner_at(10)
        with pytest.raises(ConsensusError):
            sd.owner_at(-1)

    def test_empty_distribution(self):
        sd = StakeDistribution.from_mapping({})
        assert sd.is_empty
        with pytest.raises(ConsensusError):
            sd.owner_at(0)


class TestSeeds:
    def test_genesis_seed_per_ledger(self):
        assert genesis_seed(b"\x01" * 32) != genesis_seed(b"\x02" * 32)

    def test_seed_evolution_deterministic(self):
        s0 = genesis_seed(b"\x01" * 32)
        assert next_epoch_seed(s0, 1) == next_epoch_seed(s0, 1)
        assert next_epoch_seed(s0, 1) != next_epoch_seed(s0, 2)


class TestSlotLeaders:
    def test_leader_is_deterministic(self):
        sd = StakeDistribution.from_mapping({1: 10, 2: 10})
        seed = genesis_seed(b"\x01" * 32)
        assert slot_leader(seed, 5, sd) == slot_leader(seed, 5, sd)

    def test_empty_distribution_yields_none(self):
        assert slot_leader(b"\x00" * 32, 0, StakeDistribution.from_mapping({})) is None

    def test_stake_weighting_statistically(self):
        # An address holding 90% of stake should win most slots.
        sd = StakeDistribution.from_mapping({1: 90, 2: 10})
        seed = genesis_seed(b"\x03" * 32)
        wins = sum(1 for slot in range(400) if slot_leader(seed, slot, sd) == 1)
        assert wins > 300

    def test_zero_stake_never_wins(self):
        sd = StakeDistribution.from_mapping({1: 100, 2: 0})
        seed = genesis_seed(b"\x04" * 32)
        assert all(slot_leader(seed, s, sd) == 1 for s in range(100))


class TestLeaderSchedule:
    def _schedule(self, stakes, epoch=0):
        return LeaderSchedule(
            epoch=epoch,
            seed=genesis_seed(b"\x05" * 32),
            distribution=StakeDistribution.from_mapping(stakes),
            slots_per_epoch=8,
            bootstrap_leader=999,
        )

    def test_bootstrap_fallback(self):
        schedule = self._schedule({})
        assert schedule.leaders() == [999] * 8

    def test_leaders_from_stake(self):
        schedule = self._schedule({1: 50, 2: 50})
        assert set(schedule.leaders()) <= {1, 2}

    def test_is_leader(self):
        schedule = self._schedule({1: 100})
        assert schedule.is_leader(1, 0)
        assert not schedule.is_leader(2, 0)

    def test_slot_index_bounds(self):
        schedule = self._schedule({1: 100})
        with pytest.raises(ConsensusError):
            schedule.leader_of(8)


class TestSlotPosition:
    def test_decomposition(self):
        pos = SlotPosition.from_absolute(19, slots_per_epoch=8)
        assert (pos.epoch, pos.index) == (2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ConsensusError):
            SlotPosition.from_absolute(-1, 8)
