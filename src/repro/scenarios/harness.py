"""End-to-end orchestration: a mainchain with Latus sidechains attached.

The harness wires together everything a scenario needs — a mining mainchain
node, sidechain registration with the correct Latus verification keys,
funding via forward transfers, withdrawal via BT/BTR/CSW — and provides the
prover-side helpers that assemble BTR/CSW SNARK witnesses from a node's
certificate anchors.

Block announcements from the mainchain to sidechain observers route through
a :class:`~repro.network.simulator.NetworkSimulator` (deterministic,
seed-driven), so a single harness run also exercises — and therefore
measures — the network layer; :meth:`ZendooHarness.telemetry` returns the
unified observability snapshot (registry metrics, tracer spans, per-chain
summaries) that the CLI ``metrics`` command prints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import observability
from repro.core.bootstrap import ProofdataSchema, SidechainConfig
from repro.core.transfers import (
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    derive_ledger_id,
)
from repro.crypto.keys import KeyPair
from repro.errors import CctpError
from repro.latus.node import LatusNode
from repro.latus.params import LatusParams
from repro.latus.proofs import EpochProver
from repro.latus.transactions import pack_receiver_metadata
from repro.latus.utxo import Utxo
from repro.latus.wallet import LatusWallet
from repro.latus.wcert import LatusWCertCircuit
from repro.latus.withdrawal_circuits import (
    LatusBtrCircuit,
    LatusCswCircuit,
    WithdrawalWitness,
    sign_withdrawal,
)
from repro.mainchain.node import MainchainNode
from repro.mainchain.params import MainchainParams
from repro.network.simulator import NetworkSimulator
from repro.mainchain.transaction import (
    BtrTx,
    CswTx,
    SidechainDeclarationTx,
    TransactionBuilder,
)
from repro.snark import proving

#: Latus proofdata schemas as registered on the mainchain (§4.2).
_WCERT_SCHEMA = ProofdataSchema(fields=("h_sb_last", "mst_root", "mst_delta"))
_WITHDRAWAL_SCHEMA = ProofdataSchema(fields=("utxo_addr", "utxo_amount", "utxo_nonce"))
#: Simulated seconds of clock advanced per MC block mined — the timescale
#: fault-plan partition windows are expressed in.
BLOCK_INTERVAL = 1.0


def latus_sidechain_config(
    seed: str,
    start_block: int,
    epoch_len: int,
    submit_len: int,
) -> SidechainConfig:
    """A sidechain configuration with the standard Latus verification keys.

    Key derivation is deterministic in the circuit identities, so every
    Latus node independently arrives at the same keys the MC registers.
    """
    _, wcert_vk = proving.setup(LatusWCertCircuit(EpochProver()))
    _, btr_vk = proving.setup(LatusBtrCircuit())
    _, csw_vk = proving.setup(LatusCswCircuit())
    return SidechainConfig(
        ledger_id=derive_ledger_id(seed),
        start_block=start_block,
        epoch_len=epoch_len,
        submit_len=submit_len,
        wcert_vk=wcert_vk,
        btr_vk=btr_vk,
        csw_vk=csw_vk,
        wcert_proofdata=_WCERT_SCHEMA,
        btr_proofdata=_WITHDRAWAL_SCHEMA,
        csw_proofdata=_WITHDRAWAL_SCHEMA,
    )


@dataclass
class SidechainHandle:
    """A registered sidechain with its observing Latus node."""

    config: SidechainConfig
    node: LatusNode

    @property
    def ledger_id(self) -> bytes:
        return self.config.ledger_id


def _sync_observer(handle: SidechainHandle) -> None:
    """Deliver an MC block announcement to the node ``handle`` holds now."""
    if not handle.node.crashed:
        handle.node.sync()


class ZendooHarness:
    """A complete simulated deployment: one mainchain, many sidechains."""

    def __init__(
        self,
        mc_params: MainchainParams | None = None,
        miner_seed: str = "harness-miner",
    ) -> None:
        self.mc = MainchainNode(mc_params or MainchainParams(pow_zero_bits=4, coinbase_maturity=1))
        self.miner = KeyPair.from_seed(miner_seed)
        self.sidechains: dict[bytes, SidechainHandle] = {}
        self._reserved_outpoints: set = set()
        #: Deterministic simulator carrying MC→SC block announcements (so a
        #: harness run exercises the network layer's metrics).  A sidechain
        #: node whose sync raises fails the ``mine`` that delivered the block.
        self.network = NetworkSimulator(capture_handler_errors=False)
        self.network.register("mc", lambda src, msg: None)

    # -- lifecycle -------------------------------------------------------------------

    def create_sidechain(
        self,
        seed: str,
        epoch_len: int = 5,
        submit_len: int = 2,
        start_in: int = 2,
        latus_params: LatusParams | None = None,
        creator: KeyPair | None = None,
        proving_strategy: str = "per_transaction",
        proving_workers: int | None = None,
        store=None,
        data_dir=None,
        fsync: str = "block",
        **node_kwargs,
    ) -> SidechainHandle:
        """Declare a Latus sidechain on the MC and attach an observing node.

        ``proving_workers`` opts the node's epoch prover into the parallel
        pipeline (see :class:`repro.snark.pool.ProverPool`); the default
        ``None`` keeps the serial path.  ``store=`` / ``data_dir=`` attach a
        durable :class:`~repro.storage.StateStore` to the node (see
        ``docs/STORAGE.md``).  Remaining keyword arguments go to the
        :class:`~repro.latus.node.LatusNode` constructor verbatim (e.g.
        ``paged_mst=True`` for the bounded-memory MST store).
        """
        config = latus_sidechain_config(
            seed=seed,
            start_block=self.mc.height + start_in,
            epoch_len=epoch_len,
            submit_len=submit_len,
        )
        self.mc.submit_transaction(SidechainDeclarationTx(config=config))
        self.mine(1)
        node = LatusNode(
            config=config,
            params=latus_params or LatusParams(mst_depth=12, slots_per_epoch=8),
            mc_node=self.mc,
            creator=creator or KeyPair.from_seed(f"{seed}/creator"),
            proving_strategy=proving_strategy,
            proving_workers=proving_workers,
            store=store,
            data_dir=data_dir,
            fsync=fsync,
            **node_kwargs,
        )
        handle = SidechainHandle(config=config, node=node)
        self.sidechains[config.ledger_id] = handle
        self.network.register(
            f"sc-{config.ledger_id.hex()[:8]}",
            lambda src, msg: _sync_observer(handle),
        )
        return handle

    # -- time ------------------------------------------------------------------------

    def mine(self, blocks: int = 1) -> None:
        """Mine MC blocks and let every sidechain node observe them.

        Each new block is announced to the sidechain observers through the
        simulator (per-link latencies, one delivery event per observer) and
        the clock is advanced by :data:`BLOCK_INTERVAL` simulated seconds;
        sync order across sidechains is latency-determined but each node's
        sync is independent.  A delivery syncs whichever node the handle
        holds at that moment, skips a crashed one, and lets a failing sync
        raise out of this call.  Under a fault plan a dropped or severed
        announcement means the observer simply does not sync that round —
        the liveness failure the ceasing scenarios depend on.
        """
        for _ in range(blocks):
            block = self.mc.mine_block(self.miner.address)
            if self.sidechains:
                self.network.broadcast("mc", ("mc-block", block.height))
            self.network.advance(BLOCK_INTERVAL)

    def mine_until(self, height: int) -> None:
        """Mine until the MC reaches ``height``."""
        while self.mc.height < height:
            self.mine(1)

    def run_epochs(self, handle: SidechainHandle, epochs: int = 1) -> None:
        """Advance until ``epochs`` more withdrawal certificates are adopted."""
        target = handle.node.epoch_id + epochs
        schedule = handle.config.schedule
        self.mine_until(schedule.first_height(target) + 1)

    # -- funding -----------------------------------------------------------------------

    def miner_coin(self):
        """A spendable (outpoint, coin) owned by the harness miner.

        Coins handed out are reserved so that several transactions can sit
        in the mempool simultaneously without double-spending each other;
        when every spendable coin is reserved, a block is mined to free a
        fresh coinbase.
        """
        for _ in range(10):
            height = self.mc.height
            for outpoint, coin in sorted(
                self.mc.state.utxos.coins_of(self.miner.address),
                key=lambda item: item[0].encode(),
            ):
                if coin.spendable_at(height + 1) and outpoint not in self._reserved_outpoints:
                    self._reserved_outpoints.add(outpoint)
                    return outpoint, coin
            self.mine(1)
        raise CctpError("miner has no spendable coins; mine more blocks")

    def forward_transfer(
        self,
        handle: SidechainHandle,
        receiver: KeyPair,
        amount: int,
        payback: KeyPair | None = None,
        register_forger: bool = True,
    ) -> None:
        """Fund a sidechain account from the miner's MC coins.

        By default the receiver's key is registered as a forger on the
        observing node, modelling the stakeholder running a forging node —
        otherwise their slots would be skipped forever and the chain would
        stall once they hold the majority of stake.
        """
        if register_forger:
            handle.node.add_forger(receiver)
        outpoint, coin = self.miner_coin()
        metadata = pack_receiver_metadata(
            receiver.address, (payback or receiver).address
        )
        tx = (
            TransactionBuilder()
            .spend(outpoint, self.miner, coin.output.amount)
            .forward_transfer(handle.ledger_id, metadata, amount)
            .change_to(self.miner.address)
            .build()
        )
        self.mc.submit_transaction(tx)

    def wallet(self, handle: SidechainHandle, keypair: KeyPair) -> LatusWallet:
        """A wallet view over a sidechain node.

        The key is registered as a forger (see :meth:`forward_transfer`).
        """
        handle.node.add_forger(keypair)
        return LatusWallet(handle.node, keypair)

    # -- mainchain-managed withdrawals ----------------------------------------------------

    def _withdrawal_witness(
        self,
        handle: SidechainHandle,
        utxo: Utxo,
        owner: KeyPair,
        receiver: bytes,
    ) -> tuple[WithdrawalWitness, bytes]:
        """Assemble the BTR/CSW witness from the latest certificate anchor."""
        node = handle.node
        entry = self.mc.state.cctp.entry(handle.ledger_id)
        if not entry.certificates:
            raise CctpError("no certificate adopted yet; run at least one epoch")
        # Anchor at the *latest MC-adopted* certificate: that is the one the
        # mainchain's ``H(Bw)`` check (Def. 4.5) will enforce.
        epoch = max(entry.certificates)
        record = entry.certificates[epoch]
        anchor = node.anchors.get(epoch)
        if anchor is None or record.certificate.id != anchor.certificate.id:
            raise CctpError("local node lacks the anchor for the adopted certificate")
        anchor_block = self.mc.chain.block(record.included_in_block)
        witness = WithdrawalWitness(
            utxo=utxo,
            mst_proof=anchor.state_snapshot.mst.prove(utxo),
            committed_mst_root=anchor.mst_root,
            anchor_block=anchor_block,
            anchor_cert=anchor.certificate,
            owner_pubkey=owner.public,
            signature=sign_withdrawal(handle.ledger_id, utxo, receiver, owner),
            receiver=receiver,
            ledger_id=handle.ledger_id,
        )
        return witness, anchor_block.hash

    def make_btr(
        self,
        handle: SidechainHandle,
        utxo: Utxo,
        owner: KeyPair,
        receiver: bytes,
    ) -> BackwardTransferRequest:
        """Build a proven backward transfer request for ``utxo``."""
        witness, anchor_hash = self._withdrawal_witness(handle, utxo, owner, receiver)
        pk, _ = proving.setup(LatusBtrCircuit())
        draft = BackwardTransferRequest(
            ledger_id=handle.ledger_id,
            receiver=receiver,
            amount=utxo.amount,
            nullifier=utxo.nullifier,
            proofdata=utxo.as_field_elements(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        return replace(draft, proof=proving.prove(pk, draft.public_input(anchor_hash), witness))

    def make_csw(
        self,
        handle: SidechainHandle,
        utxo: Utxo,
        owner: KeyPair,
        receiver: bytes,
    ) -> CeasedSidechainWithdrawal:
        """Build a proven ceased-sidechain withdrawal for ``utxo``."""
        witness, anchor_hash = self._withdrawal_witness(handle, utxo, owner, receiver)
        pk, _ = proving.setup(LatusCswCircuit())
        draft = CeasedSidechainWithdrawal(
            ledger_id=handle.ledger_id,
            receiver=receiver,
            amount=utxo.amount,
            nullifier=utxo.nullifier,
            proofdata=utxo.as_field_elements(),
            proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
        )
        return replace(draft, proof=proving.prove(pk, draft.public_input(anchor_hash), witness))

    def submit_btr(self, btr: BackwardTransferRequest) -> None:
        """Queue a BTR transaction on the mainchain."""
        self.mc.submit_transaction(BtrTx(requests=(btr,)))

    def submit_csw(self, csw: CeasedSidechainWithdrawal) -> None:
        """Queue a CSW transaction on the mainchain."""
        self.mc.submit_transaction(CswTx(csw=csw))

    # -- observability ---------------------------------------------------------------------

    def telemetry(self) -> dict:
        """The unified observability snapshot for this deployment.

        One JSON-serializable dict combining the process-wide metrics
        registry, the tracer's retained span trees, and per-chain summaries
        (mainchain height/mempool, each sidechain's height, certificate
        count and the shared-schema ``last_epoch_stats``).  This is the
        single stats API the CLI ``metrics`` command and the benchmarks
        read; ``CompositionStats`` feeds the same registry underneath.
        """
        registry = observability.registry()
        tracer = observability.tracer()
        return {
            "enabled": registry.enabled,
            "metrics": registry.snapshot(),
            "spans": [span.to_dict() for span in tracer.roots],
            "mainchain": {
                "height": self.mc.height,
                "mempool_size": len(self.mc.mempool),
            },
            "sidechains": {
                handle.ledger_id.hex()[:16]: {
                    "height": handle.node.height,
                    "certificates": len(handle.node.certificates),
                    "last_epoch_stats": (
                        handle.node.last_epoch_stats.to_dict()
                        if handle.node.last_epoch_stats is not None
                        else None
                    ),
                }
                for handle in self.sidechains.values()
            },
        }
