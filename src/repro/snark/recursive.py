"""Recursive SNARK composition for state-transition systems (Def. 2.4/2.5).

Implements the paper's ``(Base, Merge)`` pair:

* **Base** proves a single transition: "there exists ``t`` such that
  ``s_{i+1} = update(t, s_i)``", with states exposed as digests.
* **Merge** combines two proofs over adjacent digest ranges
  ``(d_i → d_k)`` and ``(d_k → d_j)`` into one proof for ``(d_i → d_j)``.

The :class:`RecursiveComposer` owns the bootstrapped keys and offers
``prove_base`` / ``merge`` / ``prove_sequence``; the latter reproduces the
balanced merge trees of the paper's Figures 10 and 11 and reports tree
statistics (base count, merge count, depth) used by the recursion benches.

In a production recursive SNARK the Merge circuit arithmetizes the verifier
of its children; here child verification is a native check inside the Merge
circuit's synthesis (documented substitution, DESIGN.md §4) — the
composition *structure*, adjacency discipline, and cost accounting are real.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import asdict, dataclass
from typing import Any, Generic, Protocol, Sequence, TypeVar

from repro import observability
from repro.errors import SnarkError, StateTransitionError
from repro.snark import proving
from repro.snark.circuit import Circuit, CircuitBuilder
from repro.snark.pool import ProverPool
from repro.snark.proving import Proof, ProveResult, ProvingKey, VerifyingKey
from repro.snark.r1cs import R1CSStats

_TRACER = observability.tracer()
_POOL_OCCUPANCY = observability.registry().gauge(
    "repro_pool_occupancy",
    "pool capacity kept busy by the last prove_sequence (0..1)",
).labels()

State = TypeVar("State")
Transition = TypeVar("Transition")


class TransitionSystem(Protocol[State, Transition]):
    """The paper's state transition system (Def. 2.4) plus a digest map.

    ``apply`` returns the successor state or raises
    :class:`~repro.errors.StateTransitionError` (the ``⊥`` case).  ``digest``
    maps a state to a field element — the form in which states appear as
    SNARK public inputs.
    """

    name: str

    def apply(self, transition: Transition, state: State) -> State: ...

    def digest(self, state: State) -> int: ...

    def synthesize_transition(
        self,
        builder: CircuitBuilder,
        state: State,
        transition: Transition,
        next_state: State,
    ) -> None:
        """Optional hook adding real R1CS constraints for the transition."""
        ...


@dataclass(frozen=True)
class TransitionProof:
    """A proof that some transitions move the system from one digest to another.

    ``span`` is the number of elementary transitions covered and ``depth``
    the height of the merge tree that produced it (0 for a base proof).
    """

    from_digest: int
    to_digest: int
    proof: Proof
    is_merge: bool
    span: int
    depth: int

    @property
    def public_input(self) -> tuple[int, int]:
        """The public input this proof verifies against: ``(d_from, d_to)``."""
        return (self.from_digest, self.to_digest)


@dataclass
class CompositionStats:
    """Aggregate statistics of building one recursive proof.

    The per-stage fields added for the parallel pipeline are zero on paths
    that never touch a pool; ``synthesis_seconds``, ``wall_seconds`` and
    ``critical_path_depth`` are filled by serial and parallel proving alike
    so the two cost shapes are directly comparable.
    """

    base_proofs: int = 0
    merge_proofs: int = 0
    tree_depth: int = 0
    constraints: int = 0
    native_checks: int = 0
    #: Total worker/prover-side time spent synthesizing circuits.
    synthesis_seconds: float = 0.0
    #: Parent-side time spent pickling payloads for the pool.
    serialization_seconds: float = 0.0
    #: End-to-end wall time of the composition (prove_sequence only).
    wall_seconds: float = 0.0
    #: Effective pool worker count (0 = serial proving).
    pool_workers: int = 0
    #: Proving jobs dispatched to the pool.
    pool_tasks: int = 0
    #: IPC rounds the pool performed (chunks + single submissions).
    pool_chunks: int = 0
    #: Fraction of pool capacity kept busy: synthesis / (wall * workers).
    pool_occupancy: float = 0.0
    #: Sequential proving stages on the longest path: one base + the merges
    #: above it — the lower bound on parallel latency, in proof stages.
    critical_path_depth: int = 0

    def record(self, stats: R1CSStats) -> None:
        self.constraints += stats.num_constraints
        self.native_checks += stats.num_native_checks

    def record_result(self, result: ProveResult) -> None:
        """Fold in one proof's R1CS counters and synthesis timing."""
        self.record(result.stats)
        self.synthesis_seconds += result.prove_seconds

    def to_dict(self) -> dict:
        """JSON-serializable snapshot using the shared telemetry field names.

        The timing fields (``wall_seconds``, ``synthesis_seconds``,
        ``serialization_seconds``) carry the same names here, in
        :meth:`~repro.snark.pool.PoolStats.to_dict` and in
        ``LatusNode.last_epoch_stats``, so every telemetry surface reports
        time under one schema.
        """
        return asdict(self)


class _BaseCircuit(Circuit, Generic[State, Transition]):
    """Base SNARK circuit: one ``update`` application (Def. 2.5 item 1)."""

    def __init__(self, system: TransitionSystem[State, Transition]) -> None:
        self.system = system
        self.circuit_id = f"stp/base/{system.name}"

    def synthesize(
        self,
        builder: CircuitBuilder,
        public_input: Sequence[int],
        witness: Any,
    ) -> None:
        state, transition = witness
        d_from, d_to = public_input
        builder.alloc_public(d_from)
        builder.alloc_public(d_to)
        builder.assert_native(
            self.system.digest(state) == d_from,
            "base: starting state does not match d_from",
        )
        try:
            next_state = self.system.apply(transition, state)
        except StateTransitionError as exc:
            builder.assert_native(False, f"base: update returned ⊥ ({exc})")
            return
        builder.assert_native(
            self.system.digest(next_state) == d_to,
            "base: resulting state does not match d_to",
        )
        synthesize_hook = getattr(self.system, "synthesize_transition", None)
        if synthesize_hook is not None:
            synthesize_hook(builder, state, transition, next_state)


class _MergeCircuit(Circuit):
    """Merge SNARK circuit: glue two adjacent proofs (Def. 2.5 item 2).

    Child proofs are verified against explicit ``(base_vk, merge_vk)``
    references rather than a closure over the owning composer, so proving
    keys — and everything reachable from them — round-trip through
    ``pickle`` and can be shipped to pool workers.  The keys are bound after
    ``Setup`` (key derivation depends only on ``circuit_id`` and the
    parameter digest, so the bootstrapping order is not circular).
    """

    def __init__(
        self,
        system_name: str,
        base_vk: VerifyingKey | None = None,
        merge_vk: VerifyingKey | None = None,
    ) -> None:
        self.circuit_id = f"stp/merge/{system_name}"
        self.base_vk = base_vk
        self.merge_vk = merge_vk

    def bind_keys(self, base_vk: VerifyingKey, merge_vk: VerifyingKey) -> None:
        """Attach the child verification keys (post-Setup bootstrap step)."""
        self.base_vk = base_vk
        self.merge_vk = merge_vk

    def _verify_child(self, child: TransitionProof) -> bool:
        vk = self.merge_vk if child.is_merge else self.base_vk
        if vk is None:
            raise SnarkError("merge circuit has no child verification keys bound")
        return proving.verify(vk, child.public_input, child.proof)

    def synthesize(
        self,
        builder: CircuitBuilder,
        public_input: Sequence[int],
        witness: Any,
    ) -> None:
        left, right = witness
        d_from, d_to = public_input
        builder.alloc_public(d_from)
        builder.alloc_public(d_to)
        builder.assert_native(
            left.from_digest == d_from, "merge: left proof does not start at d_from"
        )
        builder.assert_native(
            left.to_digest == right.from_digest,
            "merge: child proofs are not adjacent",
        )
        builder.assert_native(
            right.to_digest == d_to, "merge: right proof does not end at d_to"
        )
        builder.assert_native(self._verify_child(left), "merge: left child invalid")
        builder.assert_native(self._verify_child(right), "merge: right child invalid")


class RecursiveComposer(Generic[State, Transition]):
    """Bootstraps and drives the ``(Base, Merge)`` pair for one system."""

    def __init__(self, system: TransitionSystem[State, Transition]) -> None:
        self.system = system
        self._base_pk: ProvingKey
        self._merge_pk: ProvingKey
        self._base_pk, self.base_vk = proving.setup(_BaseCircuit(system))
        merge_circuit = _MergeCircuit(system.name)
        self._merge_pk, self.merge_vk = proving.setup(merge_circuit)
        merge_circuit.bind_keys(self.base_vk, self.merge_vk)

    def register_keys(self, pool: ProverPool) -> None:
        """Register both proving keys with a pool (idempotent)."""
        pool.register(self._base_pk)
        pool.register(self._merge_pk)

    # -- verification ----------------------------------------------------------

    def verify(self, transition_proof: TransitionProof) -> bool:
        """Verify a base or merge proof against the appropriate key."""
        vk = self.merge_vk if transition_proof.is_merge else self.base_vk
        return proving.verify(
            vk, transition_proof.public_input, transition_proof.proof
        )

    # -- proving -----------------------------------------------------------------

    def prove_base(
        self,
        state: State,
        transition: Transition,
        stats: CompositionStats | None = None,
    ) -> tuple[TransitionProof, State]:
        """Prove one transition; returns the proof and the successor state."""
        next_state = self.system.apply(transition, state)
        d_from = self.system.digest(state)
        d_to = self.system.digest(next_state)
        with _TRACER.span("prove/base", system=self.system.name):
            result = proving.prove_with_stats(
                self._base_pk, (d_from, d_to), (state, transition)
            )
        if stats is not None:
            stats.base_proofs += 1
            stats.record_result(result)
        proof = TransitionProof(
            from_digest=d_from,
            to_digest=d_to,
            proof=result.proof,
            is_merge=False,
            span=1,
            depth=0,
        )
        return proof, next_state

    def merge(
        self,
        left: TransitionProof,
        right: TransitionProof,
        stats: CompositionStats | None = None,
    ) -> TransitionProof:
        """Merge two adjacent proofs into one (raises if not adjacent)."""
        if left.to_digest != right.from_digest:
            raise SnarkError("cannot merge proofs over non-adjacent ranges")
        public = (left.from_digest, right.to_digest)
        result = proving.prove_with_stats(self._merge_pk, public, (left, right))
        if stats is not None:
            stats.merge_proofs += 1
            stats.record_result(result)
        return TransitionProof(
            from_digest=left.from_digest,
            to_digest=right.to_digest,
            proof=result.proof,
            is_merge=True,
            span=left.span + right.span,
            depth=max(left.depth, right.depth) + 1,
        )

    def merge_all(
        self,
        proofs: Sequence[TransitionProof],
        stats: CompositionStats | None = None,
    ) -> TransitionProof:
        """Merge a chain of adjacent proofs into one via a balanced tree.

        This reproduces the merge trees of the paper's Fig. 10 (within a
        block) and Fig. 11 (across a withdrawal epoch).
        """
        if not proofs:
            raise SnarkError("cannot merge an empty proof list")
        level = list(proofs)
        level_number = 0
        while len(level) > 1:
            level_number += 1
            with _TRACER.span(
                "prove/merge_level", level=level_number, merges=len(level) // 2
            ):
                next_level = []
                for i in range(0, len(level) - 1, 2):
                    next_level.append(self.merge(level[i], level[i + 1], stats))
                if len(level) % 2 == 1:
                    next_level.append(level[-1])
                level = next_level
        if stats is not None:
            stats.tree_depth = max(stats.tree_depth, level[0].depth)
        return level[0]

    # -- parallel proving ---------------------------------------------------------

    def prove_bases_pool(
        self,
        state: State,
        transitions: Sequence[Transition],
        pool: ProverPool,
        stats: CompositionStats | None = None,
    ) -> tuple[list[TransitionProof], State]:
        """Prove every transition's base proof through a pool.

        The state chain (the inherently sequential part: each digest depends
        on the previous ``apply``) is computed up front in the parent; the
        expensive circuit syntheses then dispatch as independent jobs.
        """
        jobs: list[tuple[tuple[int, int], Any]] = []
        digest_pairs: list[tuple[int, int]] = []
        current = state
        d_current = self.system.digest(current)
        for transition in transitions:
            next_state = self.system.apply(transition, current)
            d_next = self.system.digest(next_state)
            jobs.append(((d_current, d_next), (current, transition)))
            digest_pairs.append((d_current, d_next))
            current, d_current = next_state, d_next
        results = pool.map_prove(self._base_pk, jobs)
        proofs = []
        for (d_from, d_to), result in zip(digest_pairs, results):
            if stats is not None:
                stats.base_proofs += 1
                stats.record_result(result)
            proofs.append(
                TransitionProof(
                    from_digest=d_from,
                    to_digest=d_to,
                    proof=result.proof,
                    is_merge=False,
                    span=1,
                    depth=0,
                )
            )
        return proofs, current

    def merge_all_parallel(
        self,
        proofs: Sequence[TransitionProof],
        pool: ProverPool,
        stats: CompositionStats | None = None,
    ) -> TransitionProof:
        """Level-scheduled parallel version of :meth:`merge_all`.

        Builds the *same* balanced tree as the serial path — identical
        pairing, odd-tail carries, ``span``/``depth`` accounting and root
        public input — but dispatches every merge to the pool the moment
        both of its children are ready, so independent merges (within a
        level, and across levels once their subtrees complete) prove
        concurrently.  Latency is bounded by the critical path (tree depth),
        not the merge count.
        """
        if not proofs:
            raise SnarkError("cannot merge an empty proof list")
        # deterministic level sizes of the serial tree: pairs merge, an odd
        # tail carries upward unchanged
        level_sizes = [len(proofs)]
        while level_sizes[-1] > 1:
            level_sizes.append((level_sizes[-1] + 1) // 2)
        top = len(level_sizes) - 1
        ready: dict[tuple[int, int], TransitionProof] = {}
        inflight: dict[Future, tuple[int, int, TransitionProof, TransitionProof]] = {}

        def place(level: int, idx: int, proof: TransitionProof) -> None:
            # odd-tail carry: the last node of an odd level rises for free
            while (
                level < top
                and level_sizes[level] % 2 == 1
                and idx == level_sizes[level] - 1
            ):
                level += 1
                idx = level_sizes[level] - 1
            ready[(level, idx)] = proof
            if level == top:
                return
            left_idx = idx & ~1
            left = ready.get((level, left_idx))
            right = ready.get((level, left_idx + 1))
            if left is None or right is None:
                return  # sibling still proving; its completion dispatches us
            if left.to_digest != right.from_digest:
                raise SnarkError("cannot merge proofs over non-adjacent ranges")
            future = pool.submit_prove(
                self._merge_pk, (left.from_digest, right.to_digest), (left, right)
            )
            inflight[future] = (level + 1, left_idx // 2, left, right)

        for i, proof in enumerate(proofs):
            place(0, i, proof)
        while (top, 0) not in ready:
            if not inflight:
                raise SnarkError("merge scheduler stalled with no work in flight")
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                level, idx, left, right = inflight.pop(future)
                result = pool.collect(future)
                if stats is not None:
                    stats.merge_proofs += 1
                    stats.record_result(result)
                place(
                    level,
                    idx,
                    TransitionProof(
                        from_digest=left.from_digest,
                        to_digest=right.to_digest,
                        proof=result.proof,
                        is_merge=True,
                        span=left.span + right.span,
                        depth=max(left.depth, right.depth) + 1,
                    ),
                )
        root = ready[(top, 0)]
        if stats is not None:
            stats.tree_depth = max(stats.tree_depth, root.depth)
        return root

    def prove_sequence(
        self,
        state: State,
        transitions: Sequence[Transition],
        pool: ProverPool | None = None,
    ) -> tuple[TransitionProof, State, CompositionStats]:
        """Prove a whole transition sequence, returning the single root proof.

        Equivalent to proving every transition with Base and folding the
        results with :meth:`merge_all`.  With ``pool`` the base proofs and
        the merge tree dispatch through :meth:`prove_bases_pool` /
        :meth:`merge_all_parallel`; the resulting root proof, public input
        and proof counts are identical to the serial path.
        """
        if not transitions:
            raise SnarkError("cannot prove an empty transition sequence")
        started = time.perf_counter()
        stats = CompositionStats()
        with _TRACER.span(
            "prove/sequence",
            system=self.system.name,
            transitions=len(transitions),
            pooled=pool is not None,
        ):
            if pool is not None:
                self.register_keys(pool)
                pool_before = (
                    pool.stats.tasks,
                    pool.stats.chunks,
                    pool.stats.serialization_seconds,
                )
                with _TRACER.span("prove/base_batch", jobs=len(transitions)):
                    proofs, current = self.prove_bases_pool(
                        state, transitions, pool, stats
                    )
                with _TRACER.span("prove/merge_tree", leaves=len(proofs)):
                    root = self.merge_all_parallel(proofs, pool, stats)
                stats.pool_workers = pool.stats.workers
                stats.pool_tasks = pool.stats.tasks - pool_before[0]
                stats.pool_chunks = pool.stats.chunks - pool_before[1]
                stats.serialization_seconds = (
                    pool.stats.serialization_seconds - pool_before[2]
                )
            else:
                proofs = []
                current = state
                for transition in transitions:
                    proof, current = self.prove_base(current, transition, stats)
                    proofs.append(proof)
                root = self.merge_all(proofs, stats)
        stats.wall_seconds = time.perf_counter() - started
        stats.critical_path_depth = root.depth + 1
        if stats.pool_workers and stats.wall_seconds > 0:
            stats.pool_occupancy = min(
                1.0, stats.synthesis_seconds / (stats.wall_seconds * stats.pool_workers)
            )
        _POOL_OCCUPANCY.set(stats.pool_occupancy)
        return root, current, stats
