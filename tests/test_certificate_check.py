"""One prover per epoch: a node checks the certificate on its mainchain.

At every epoch close a node takes the first certificate on its local
mainchain (adopted, then pending) that matches the epoch it derived and
verifies under the registered key; only when none does it prove the epoch
itself.  These tests pin the three consequences: a tampered certificate is
refused and counted by field, only the forger proves and submits, and a
refused block leaves the node exactly where it stood, having re-executed
nothing but its own transitions.  The last tests pin three block rules: the
slot a block claims is tied to the MC references it carries, the references
of one block stay within one withdrawal epoch, and a consensus epoch's stake
is read off the chain, whatever the MC sync did.
"""

from dataclasses import replace

import pytest

from repro import observability
from repro.core.transfers import BackwardTransfer
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError, StateTransitionError
from repro.latus.block import forge_block
from repro.latus.node import LatusNode
from repro.latus.state import LatusState
from repro.mainchain.transaction import CertificateTx
from repro.observability import export
from repro.scenarios import ZendooHarness
from repro.snark import proving
from repro.storage import MemoryStore, PagedNodeStore
from tests.test_reorg_rollback import count_proofs, node_fingerprint

ALICE = KeyPair.from_seed("alice")
BOB = KeyPair.from_seed("bob")


def refused(reason: str) -> float:
    flat = export.flatten(observability.registry())
    return flat.get(f'repro_latus_certificates_refused_total{{reason="{reason}"}}', 0)


def validator_of(harness, sc, **kwargs) -> LatusNode:
    return LatusNode(
        config=sc.config,
        params=sc.node.params,
        mc_node=harness.mc,
        creator=sc.node.creator,
        forger_keys=[],
        **kwargs,
    )


def resign(sc, block, forger=None, **changes):
    """``block`` with ``changes``, signed by ``forger`` (its own by default)."""
    fields = dict(
        parent_hash=block.parent_hash,
        height=block.height,
        slot=block.slot,
        forger=forger or sc.node.forgers[block.forger_addr],
        mc_refs=block.mc_refs,
        transactions=block.transactions,
        state_digest=block.state_digest,
    )
    fields.update(changes)
    return forge_block(**fields)


def count_calls(monkeypatch, cls, *names) -> dict[str, int]:
    """Count, from now on, the calls of each method ``names`` of ``cls``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(cls, name)

        def counted(obj, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(obj, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


TAMPERS = {
    "quality": lambda c: replace(c, quality=c.quality + 1),
    "bt_list": lambda c: replace(
        c, bt_list=c.bt_list + (BackwardTransfer(receiver_addr=BOB.address, amount=1),)
    ),
    "h_sb_last": lambda c: replace(c, proofdata=(c.proofdata[0] + 1, *c.proofdata[1:])),
    "mst_root": lambda c: replace(
        c, proofdata=(c.proofdata[0], c.proofdata[1] + 1, c.proofdata[2])
    ),
    "mst_delta": lambda c: replace(c, proofdata=(*c.proofdata[:2], c.proofdata[2] + 1)),
    "proof": lambda c: replace(
        c, proof=proving.Proof(data=_flip_last_byte(c.proof.to_bytes()))
    ),
}


@pytest.fixture(scope="module")
def withheld():
    """A forger that proved epoch 0 and withheld its certificate."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain(
        "check", epoch_len=4, submit_len=2, auto_submit_certificates=False
    )
    harness.forward_transfer(sc, ALICE, 50_000)
    while not sc.node.certificates:
        harness.mine(1)
    assert not harness.mc.mempool.certificates_for(sc.ledger_id)
    yield harness, sc, sc.node.certificates[0]
    sc.node.close()


class TestTamperedCertificate:
    @pytest.mark.parametrize("field", sorted(TAMPERS))
    def test_validator_refuses_and_proves_the_honest_one(self, withheld, field):
        harness, sc, honest = withheld
        planted = CertificateTx(wcert=TAMPERS[field](honest))
        harness.mc.submit_transaction(planted)
        validator = validator_of(harness, sc, auto_submit_certificates=False)
        proved = count_proofs(validator)
        before = refused(field)
        try:
            validator.bootstrap_from(list(sc.node.blocks))
        finally:
            harness.mc.mempool.remove(planted.txid)
            validator.close()
        assert refused(field) == before + 1
        assert proved == [0]
        assert validator.anchors[0].certificate.encode() == honest.encode()

    def test_the_honest_certificate_is_taken_without_proving(self, withheld):
        harness, sc, honest = withheld
        planted = CertificateTx(wcert=honest)
        harness.mc.submit_transaction(planted)
        validator = validator_of(harness, sc, auto_submit_certificates=False)
        proved = count_proofs(validator)
        try:
            validator.bootstrap_from(list(sc.node.blocks))
        finally:
            harness.mc.mempool.remove(planted.txid)
            validator.close()
        assert proved == []
        assert validator.anchors[0].certificate is honest


class TestOneProverOneSubmitter:
    def test_validators_check_and_only_the_forger_submits(self):
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("one-prover", epoch_len=4, submit_len=3)
        validators = [validator_of(harness, sc) for _ in range(2)]
        proofs = {node: count_proofs(node) for node in (sc.node, *validators)}
        submitted = []
        submit = harness.mc.submit_transaction

        def recording(tx):
            if isinstance(tx, CertificateTx):
                submitted.append(tx.wcert.epoch_id)
            submit(tx)

        harness.mc.submit_transaction = recording
        harness.forward_transfer(sc, ALICE, 60_000)
        while len(sc.node.certificates) < 2:
            harness.mine(1)
            for validator in validators:
                validator.sync()
                for block in sc.node.blocks[validator.height + 1 :]:
                    validator.receive_block(block)
        assert proofs[sc.node] == [0, 1]
        assert [proofs[v] for v in validators] == [[], []]
        assert submitted == [0, 1]
        for validator in validators:
            assert validator.certificates == sc.node.certificates
            validator.close()
        sc.node.close()


class TestStateCopiesPerClose:
    def test_a_checking_node_copies_the_state_once_per_close(self, monkeypatch):
        """The anchor's snapshot is the only copy a node that checks makes:
        the open epoch's start state is derived only where a node proves."""
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("copies", epoch_len=4, submit_len=3)
        harness.forward_transfer(sc, ALICE, 60_000)
        while not sc.node.certificates:
            harness.mine(1)
        validator = validator_of(harness, sc)
        validator.sync()
        *opening, closing = sc.node.blocks
        for block in opening:
            validator.receive_block(block)
        assert validator.certificates == []
        copies = []
        copy = LatusState.copy
        monkeypatch.setattr(LatusState, "copy", lambda state: copies.append(state) or copy(state))
        validator.receive_block(closing)
        assert validator.certificates == sc.node.certificates
        assert len(copies) == 1
        validator.close()
        sc.node.close()


@pytest.fixture(scope="module")
def paying_chain():
    """Twelve blocks over three epochs, one of them carrying a payment."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("refusal", epoch_len=4, submit_len=3)
    harness.forward_transfer(sc, ALICE, 60_000)
    while sc.node.height < 3:
        harness.mine(1)
    harness.wallet(sc, ALICE).pay(BOB.address, 1_000)
    while sc.node.height < 11:
        harness.mine(1)
    assert any(block.transactions for block in sc.node.blocks)
    yield harness, sc
    sc.node.close()


#: How ``receive_block`` refuses: a broken rule, or a ⊥ transition.
REFUSED = (ConsensusError, StateTransitionError)


def tampers(sc, block) -> list:
    """Refusable copies of ``block``: a wrong digest, a forger that does not
    lead the slot and, for a block with a payment, that payment appended
    again so that it fails after the block's other transitions applied."""
    found = [
        resign(sc, block, state_digest=block.state_digest + 1),
        resign(sc, block, forger=KeyPair.from_seed("mallory")),
    ]
    if block.transactions:
        found.append(resign(sc, block, transactions=block.transactions + block.transactions[:1]))
    return found


class TestRefusalCostsOneBlock:
    def test_a_refused_block_applies_only_its_own_transitions(
        self, paying_chain, monkeypatch
    ):
        """No state copy, and no transition of any other block re-executed."""
        harness, sc = paying_chain
        paying = next(b for b in sc.node.blocks if b.transactions)
        validator = validator_of(harness, sc)
        validator.bootstrap_from(sc.node.blocks[: paying.height])
        calls = count_calls(monkeypatch, LatusState, "apply", "copy")
        digest, _, midway = tampers(sc, paying)
        for tampered in (digest, midway):
            calls.update(apply=0, copy=0)
            with pytest.raises(REFUSED):
                validator.receive_block(tampered)
            assert calls["copy"] == 0
            assert calls["apply"] <= len(tampered.ordered_transitions())
        validator.receive_block(paying)
        assert validator.tip_hash == paying.hash
        validator.close()


class TestRefusedBlockLeavesNoTrace:
    """A refused block leaves every field a rollback restores untouched,
    so the honest block that follows is accepted."""

    @pytest.mark.parametrize("durable", [False, True], ids=["dict", "paged"])
    def test_each_refusal_restores_the_node(self, paying_chain, tmp_path, durable):
        # a node over a data directory pages its MST, one over a memory
        # store keeps the dict store; both restart from their store
        harness, sc = paying_chain
        where = {"data_dir": tmp_path / "validator"} if durable else {"store": MemoryStore()}
        validator = validator_of(harness, sc, **where)
        assert isinstance(validator.state.mst.node_store, PagedNodeStore) == durable
        for block in sc.node.blocks:
            for tampered in tampers(sc, block):
                before = node_fingerprint(validator)
                with pytest.raises(REFUSED):
                    validator.receive_block(tampered)
                assert node_fingerprint(validator) == before, block.height
            validator.receive_block(block)
        assert validator.tip_hash == sc.node.tip_hash
        assert validator.state.digest() == sc.node.state.digest()
        committed = node_fingerprint(validator)
        validator.crash()
        validator.restart()
        assert node_fingerprint(validator) == committed
        validator.close()


class TestSlotClock:
    """§5.1: slot ``k`` is MC height ``start_block + k``.  A block signed by
    the leader of the slot it claims is still refused when that slot runs
    behind its parent's, ahead of the MC tip, or away from its last
    reference."""

    def test_a_leader_of_another_slot_cannot_sign_the_tip(self, paying_chain):
        harness, sc = paying_chain
        *body, tip = sc.node.blocks
        spe = sc.node.params.slots_per_epoch
        validator = validator_of(harness, sc)
        validator.bootstrap_from(body)
        for slot in (0, body[-1].slot, harness.mc.height + 1 - sc.config.start_block):
            leader = sc.node.leader_schedule(slot // spe).leader_of(slot % spe)
            tampered = resign(sc, tip, forger=sc.node.forgers[leader], slot=slot)
            with pytest.raises(ConsensusError):
                validator.receive_block(tampered)
        validator.receive_block(tip)
        assert validator.tip_hash == tip.hash
        validator.close()


@pytest.fixture(scope="module")
def cut_at_one_slot():
    """The leader missed the slots around epoch 1's last MC block, then
    forged two blocks at one slot, cut there, and gossiped them to a peer.
    ``cut3`` is a sidechain whose two gossiped blocks draw decreasing link
    latencies."""
    harness = ZendooHarness()
    harness.mine(2)
    sc = harness.create_sidechain("cut3", epoch_len=4, submit_len=3)
    peer = harness.add_node(sc, "peer")
    node = sc.node
    harness.mine_until(sc.config.schedule.last_height(1) - 1)
    ((address, key),) = node.forgers.items()
    del node.forgers[address]
    harness.mine(3)
    node.forgers[address] = key
    before = export.flatten(observability.registry())
    harness.mine(1)
    after = export.flatten(observability.registry())
    refusals = {k: v - before.get(k, 0) for k, v in after.items() if "blocks_refused" in k}
    yield harness, sc, peer, refusals
    for each in sc.nodes.values():
        each.close()


class TestEpochCut:
    def test_two_blocks_at_one_slot_reach_a_peer_in_order(self, cut_at_one_slot):
        harness, sc, peer, refusals = cut_at_one_slot
        first, second = sc.node.blocks[-2:]
        assert first.slot == second.slot
        assert first.mc_refs[-1].mc_height == sc.config.schedule.last_height(1)
        assert not any(refusals.values())
        assert (peer.tip_hash, peer.epoch_id) == (sc.node.tip_hash, 2)

    def test_references_across_an_epoch_boundary_are_refused(self, cut_at_one_slot):
        """§5.1.1: a block may not reference MC blocks of two withdrawal
        epochs.  The two cut blocks merged into one, signed by the slot
        leader over the right digest, are refused, and the honest pair
        then closes the epoch."""
        harness, sc, _, _ = cut_at_one_slot
        first, second = sc.node.blocks[-2:]
        validator = validator_of(harness, sc)
        validator.bootstrap_from(sc.node.blocks[:-2])
        fields = dict(
            parent_hash=first.parent_hash,
            height=first.height,
            slot=second.slot,
            forger=sc.node.forgers[second.forger_addr],
            mc_refs=first.mc_refs + second.mc_refs,
            transactions=first.transactions + second.transactions,
        )
        state = validator.state.copy()
        for tx in forge_block(**fields, state_digest=0).ordered_transitions():
            state.apply(tx)
        merged = forge_block(**fields, state_digest=state.digest())
        with pytest.raises(ConsensusError, match="withdrawal-epoch boundary"):
            validator.receive_block(merged)
        assert validator.epoch_id == 1
        for block in (first, second):
            validator.receive_block(block)
        assert validator.epoch_id == 2
        assert validator.tip_hash == sc.node.tip_hash
        validator.close()


class TestStakeSnapshotFollowsTheChain:
    def test_a_validator_that_synced_the_mc_first_takes_the_history(self, paying_chain):
        """Consensus epoch 1's stake is the chain's before slot 8, not the
        empty chain the validator held when its MC sync reached slot 8."""
        harness, sc = paying_chain
        validator = validator_of(harness, sc)
        validator.sync()
        for block in sc.node.blocks:
            validator.receive_block(block)
        assert validator.tip_hash == sc.node.tip_hash
        validator.close()
