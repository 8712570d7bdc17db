"""A multi-node Latus deployment: independent forgers exchanging blocks.

Each stakeholder runs their own :class:`~repro.latus.node.LatusNode`
holding only their own forging key.  All nodes observe the same mainchain
(the paper's parent-child topology); when a node wins a slot it forges and
broadcasts, and every peer validates the block through the full
``receive_block`` path — leader check, reference commitment proofs, state
re-execution, digest comparison — and at an epoch close checks the
forger's certificate on the mainchain instead of proving the epoch again.

The deployment asserts convergence after every round: all nodes must agree
on the sidechain tip and state digest, which exercises the determinism the
whole construction rests on (MC-defined transactions are pure functions of
the MC block and the state, §5.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import observability
from repro.core.bootstrap import SidechainConfig
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError
from repro.latus.node import LatusNode
from repro.latus.params import LatusParams
from repro.mainchain.node import MainchainNode
from repro.network.faults import FaultPlan
from repro.network.simulator import LatencyModel, NetworkSimulator


@dataclass
class ChaosReport:
    """What one :meth:`MultiNodeDeployment.run_chaos` run did and survived."""

    rounds: int
    #: Sidechain blocks forged across the run (pre-reconciliation).
    sc_blocks_forged: int
    #: Simulator events delivered (includes duplicates).
    delivered: int
    #: Fault-injected message losses (drops + partition severs).
    dropped: int
    #: Deliveries whose handler raised (stale/duplicate/forked blocks the
    #: receiving node rejected — expected noise under chaos).
    handler_errors: int
    #: Crash / restart / resync events executed by the schedule + healing.
    crashes: int = 0
    restarts: int = 0
    resyncs: int = 0
    #: Restarts that replayed the node's own on-disk store instead of
    #: resyncing from a peer (nodes constructed with ``stores=``).
    disk_recoveries: int = 0
    #: Node whose chain everyone converged onto.
    reference: str = ""
    #: Canonical byte encoding of every fault fired (seed-reproducible).
    fault_schedule: bytes = b""
    #: Post-healing agreement: identical (height, tip, state digest).
    final_height: int = -1
    final_digest: int = 0
    converged: bool = False
    #: Per-kind fault counts, e.g. ``{"drop": 3, "partition": 7}``.
    fault_counts: dict[str, int] = field(default_factory=dict)


class MultiNodeDeployment:
    """N Latus nodes, one per forger key, over one mainchain node."""

    def __init__(
        self,
        config: SidechainConfig,
        params: LatusParams,
        mc_node: MainchainNode,
        creator: KeyPair,
        stakeholders: list[KeyPair],
        proving_strategy: str = "batched",
        proving_workers: int | None = None,
        stores: dict | None = None,
    ) -> None:
        self.mc = mc_node
        self.config = config
        self.stakeholders = stakeholders
        self.nodes: dict[str, LatusNode] = {}
        #: Optional per-node durable stores, keyed by node name ("creator",
        #: "node-0", ...).  A node with a store recovers from disk on
        #: :meth:`~repro.latus.node.LatusNode.restart` instead of needing a
        #: full peer resync.
        stores = stores or {}
        # the creator's node also forges bootstrap slots
        keys_per_node: list[tuple[str, list[KeyPair]]] = [
            ("creator", [creator])
        ] + [(f"node-{i}", [kp]) for i, kp in enumerate(stakeholders)]
        for name, keys in keys_per_node:
            node = LatusNode(
                config=config,
                params=params,
                mc_node=mc_node,
                creator=creator,
                forger_keys=keys,
                proving_strategy=proving_strategy,
                proving_workers=proving_workers,
                store=stores.get(name),
            )
            self.nodes[name] = node

    # -- driving ---------------------------------------------------------------------

    def step(self, miner_addr: bytes) -> int:
        """Mine one MC block, let every node sync, broadcast forged blocks.

        Returns the number of sidechain blocks forged this step.  Raises
        :class:`ConsensusError` if nodes diverge.
        """
        self.mc.mine_block(miner_addr)
        forged = []
        for name, node in self.nodes.items():
            for block in node.sync():
                forged.append((name, block))
        for origin, block in forged:
            for name, node in self.nodes.items():
                if name != origin:
                    node.receive_block(block)
        self.assert_converged()
        return len(forged)

    def run(self, miner_addr: bytes, blocks: int) -> int:
        """Drive ``blocks`` MC blocks; returns total SC blocks forged."""
        return sum(self.step(miner_addr) for _ in range(blocks))

    # -- chaos -----------------------------------------------------------------------

    def run_chaos(
        self,
        miner_addr: bytes,
        rounds: int,
        plan: FaultPlan,
        crash_at: dict[int, list[str]] | None = None,
        restart_at: dict[int, list[str]] | None = None,
        round_duration: float = 1.0,
        network: NetworkSimulator | None = None,
    ) -> ChaosReport:
        """Drive the deployment through ``rounds`` MC blocks under faults.

        Block gossip goes through a :class:`NetworkSimulator` carrying
        ``plan``, so announcements can be dropped, duplicated, delayed or
        severed by scheduled partitions; ``crash_at[r]`` names nodes that
        crash just before round ``r`` (0-based) and ``restart_at[r]`` nodes
        that restart then.  Unlike :meth:`step`, divergence *during* the run
        is expected; once the plan has healed, crashed nodes are restarted
        and every lagging node resyncs from the best reference chain via
        :meth:`~repro.latus.node.LatusNode.sync_from`.  Convergence — one
        tip, one state digest — is asserted at the end and the whole run is
        summarised in the returned :class:`ChaosReport` (including the
        byte-exact fault schedule, reproducible from ``plan.seed``).
        """
        crash_at = crash_at or {}
        restart_at = restart_at or {}
        net = network or NetworkSimulator(
            latency=LatencyModel(base=0.05, jitter=0.1, seed=plan.seed + b"/lat"),
            faults=plan,
        )
        for name, node in self.nodes.items():
            net.register(name, self._make_chaos_handler(node))

        crashes = restarts = resyncs = disk_recoveries = 0
        forged_total = 0
        for rnd in range(rounds):
            for name in crash_at.get(rnd, []):
                if not self.nodes[name].crashed:
                    self.nodes[name].crash()
                    crashes += 1
            for name in restart_at.get(rnd, []):
                node = self.nodes[name]
                if node.crashed:
                    node.restart()
                    restarts += 1
                    if node.blocks:
                        # recovered from its own store; the round's sync()
                        # replays only the MC tail past the last fsync
                        disk_recoveries += 1
                    else:
                        resyncs += self._chaos_resync(node)
            self.mc.mine_block(miner_addr)
            for name, node in self.nodes.items():
                if node.crashed:
                    continue
                for block in node.sync():
                    forged_total += 1
                    net.broadcast(name, ("sc-block", block))
            net.advance(round_duration)

        # -- heal: clear partitions, drain in-flight traffic, revive nodes
        if net.clock < plan.healed_at:
            net.advance(plan.healed_at - net.clock)
        net.run()
        for name, node in self.nodes.items():
            if node.crashed:
                node.restart()
                restarts += 1
                if node.blocks:
                    disk_recoveries += 1

        # -- reconcile: everyone adopts the best chain
        reference = self._chaos_reference()
        ref_node = self.nodes[reference]
        ref_view = (ref_node.height, ref_node.tip_hash)
        for name, node in self.nodes.items():
            if name == reference:
                continue
            if (node.height, node.tip_hash) != ref_view:
                node.sync_from(ref_node)
                resyncs += 1
        self.assert_converged()

        counts: dict[str, int] = {}
        for _, _, _, _, decision in net.fault_log:
            for kind in decision.kinds:
                counts[kind] = counts.get(kind, 0) + 1
        return ChaosReport(
            rounds=rounds,
            sc_blocks_forged=forged_total,
            delivered=net.delivered,
            dropped=counts.get("drop", 0) + counts.get("partition", 0),
            handler_errors=len(net.handler_errors),
            crashes=crashes,
            restarts=restarts,
            resyncs=resyncs,
            disk_recoveries=disk_recoveries,
            reference=reference,
            fault_schedule=net.fault_schedule(),
            final_height=ref_node.height,
            final_digest=ref_node.state.digest(),
            converged=True,
            fault_counts=counts,
        )

    def _make_chaos_handler(self, node: LatusNode):
        """A network handler feeding gossiped blocks into ``node``.

        Deliveries to a crashed node vanish (that is what crashing means);
        rejections of stale/duplicate/forked blocks raise out of
        ``receive_block`` and are captured by the simulator.
        """

        def handle(src: str, message) -> None:
            kind, payload = message
            if kind == "sc-block" and not node.crashed:
                node.receive_block(payload)

        return handle

    def _chaos_resync(self, node: LatusNode) -> int:
        """Best-effort mid-run recovery of a freshly restarted node.

        Returns the number of resyncs performed (0 when every peer is down
        or the reference itself cannot be replayed yet — final healing will
        retry).
        """
        try:
            node.sync_from(self.nodes[self._chaos_reference(exclude=node)])
        except ConsensusError:
            return 0
        return 1

    def _chaos_reference(self, exclude: LatusNode | None = None) -> str:
        """The node whose chain the deployment should converge onto.

        Prefers nodes whose local certificate history covers every epoch
        the mainchain has adopted for this sidechain (their chain can
        explain the on-MC record), then the longest chain, then the lowest
        name for determinism.
        """
        entry = self.mc.state.cctp.sidechains.get(self.config.ledger_id)
        adopted = set(entry.certificates) if entry is not None else set()
        running = [
            (not adopted <= {c.epoch_id for c in node.certificates}, -node.height, name)
            for name, node in self.nodes.items()
            if not node.crashed and node is not exclude
        ]
        if not running:
            raise ConsensusError("no running node available as chaos reference")
        return min(running)[2]

    # -- assertions ------------------------------------------------------------------

    def assert_converged(self) -> None:
        """All nodes agree on tip, height and state digest."""
        views = {
            name: (node.height, node.tip_hash, node.state.digest())
            for name, node in self.nodes.items()
        }
        distinct = set(views.values())
        if len(distinct) > 1:
            detail = ", ".join(
                f"{name}: h={h} tip={tip.hex()[:8]}" for name, (h, tip, _) in views.items()
            )
            raise ConsensusError(f"nodes diverged: {detail}")

    def close(self) -> None:
        """Release every node's prover resources (worker pools, if any)."""
        for node in self.nodes.values():
            node.close()

    def any_node(self) -> LatusNode:
        """A representative node (all are convergent)."""
        return next(iter(self.nodes.values()))

    def telemetry(self) -> dict:
        """The unified observability snapshot for this deployment.

        Same shape as :meth:`repro.scenarios.harness.ZendooHarness.telemetry`
        with one entry per named node (all convergent; only a node that
        proved an epoch has ``last_epoch_stats``).
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
            "nodes": {
                name: {
                    "height": node.height,
                    "certificates": len(node.certificates),
                    "last_epoch_stats": (
                        node.last_epoch_stats.to_dict()
                        if node.last_epoch_stats is not None
                        else None
                    ),
                }
                for name, node in self.nodes.items()
            },
        }

    def forger_distribution(self) -> dict[str, int]:
        """How many blocks each node forged (by forger address match)."""
        by_addr = {addr: name for name, node in self.nodes.items() for addr in node.forgers}
        return dict(Counter(by_addr.get(b.forger_addr, "unknown") for b in self.any_node().blocks))
