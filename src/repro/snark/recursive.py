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
The tree's shape is :func:`merge_plan`'s alone: serial proving, the proof
market and its reward split all walk the steps it lists.

In a production recursive SNARK the Merge circuit arithmetizes the verifier
of its children; here child verification is a native check inside the Merge
circuit's synthesis (documented substitution, DESIGN.md §4) — the
composition *structure*, adjacency discipline, and cost accounting are real.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Any, Generic, NamedTuple, Protocol, Sequence, TypeVar

from repro import observability
from repro.errors import SnarkError, StateTransitionError
from repro.snark import proving
from repro.snark.circuit import Circuit, CircuitBuilder
from repro.snark.proving import Proof, ProveResult, ProvingKey, VerifyingKey
from repro.snark.r1cs import R1CSStats

_TRACER = observability.tracer()

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

    @staticmethod
    def merge_input(left: TransitionProof, right: TransitionProof) -> tuple[int, int]:
        """The public input of the Merge over ``left`` then ``right``."""
        if left.to_digest != right.from_digest:
            raise SnarkError("cannot merge proofs over non-adjacent ranges")
        return (left.from_digest, right.to_digest)

    @classmethod
    def merged(
        cls, left: TransitionProof, right: TransitionProof, proof: Proof
    ) -> TransitionProof:
        """The node a Merge proof over ``left`` then ``right`` stands for."""
        return cls(
            from_digest=left.from_digest,
            to_digest=right.to_digest,
            proof=proof,
            is_merge=True,
            span=left.span + right.span,
            depth=max(left.depth, right.depth) + 1,
        )


class MergeStep(NamedTuple):
    """One Merge proof of the tree: node ``(level, index)`` from two children.

    A child key names a leaf ``(0, i)`` or an earlier step's node.
    """

    level: int
    index: int
    left_key: tuple[int, int]
    right_key: tuple[int, int]

    @property
    def key(self) -> tuple[int, int]:
        return (self.level, self.index)


def merge_plan(leaves: int) -> list[MergeStep]:
    """The balanced merge tree over ``leaves`` base proofs (Figs. 10/11).

    Adjacent pairs merge at every level and an odd tail carries upward
    unchanged: a carried node is never a step, so nobody proves (or is paid
    for) it twice.  Steps are listed in level order, so both children of a
    step come before it and the last step is the root.
    """
    if leaves < 1:
        raise SnarkError("cannot merge an empty proof list")
    plan: list[MergeStep] = []
    nodes = [(0, i) for i in range(leaves)]
    level = 0
    while len(nodes) > 1:
        level += 1
        steps = [
            MergeStep(level, i // 2, nodes[i], nodes[i + 1])
            for i in range(0, len(nodes) - 1, 2)
        ]
        plan.extend(steps)
        nodes = [step.key for step in steps] + nodes[2 * len(steps) :]
    return plan


@dataclass
class CompositionStats:
    """Aggregate statistics of building one recursive proof."""

    base_proofs: int = 0
    merge_proofs: int = 0
    tree_depth: int = 0
    constraints: int = 0
    native_checks: int = 0
    #: Total time spent synthesizing circuits.
    synthesis_seconds: float = 0.0
    #: End-to-end wall time of the composition (prove_sequence only).
    wall_seconds: float = 0.0
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
        """JSON-serializable snapshot (how telemetry reports ``last_epoch_stats``)."""
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
    references, bound after ``Setup``: the Merge circuit verifies Merge
    proofs, so its own key must exist before it can be bound (key
    derivation depends only on ``circuit_id`` and the parameter digest, so
    the bootstrapping order is not circular).
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
        proof = TransitionProof(d_from, d_to, result.proof, is_merge=False, span=1, depth=0)
        return proof, next_state

    def merge(
        self,
        left: TransitionProof,
        right: TransitionProof,
        stats: CompositionStats | None = None,
    ) -> TransitionProof:
        """Merge two adjacent proofs into one (raises if not adjacent)."""
        result = proving.prove_with_stats(
            self._merge_pk, TransitionProof.merge_input(left, right), (left, right)
        )
        if stats is not None:
            stats.merge_proofs += 1
            stats.record_result(result)
        return TransitionProof.merged(left, right, result.proof)

    def merge_all(
        self,
        proofs: Sequence[TransitionProof],
        stats: CompositionStats | None = None,
    ) -> TransitionProof:
        """Merge a chain of adjacent proofs into one via a balanced tree.

        This reproduces the merge trees of the paper's Fig. 10 (within a
        block) and Fig. 11 (across a withdrawal epoch), walking
        :func:`merge_plan` one level at a time.
        """
        plan = merge_plan(len(proofs))
        nodes = {(0, i): proof for i, proof in enumerate(proofs)}
        for level, steps in groupby(plan, key=lambda step: step.level):
            level_steps = list(steps)
            with _TRACER.span("prove/merge_level", level=level, merges=len(level_steps)):
                for step in level_steps:
                    nodes[step.key] = self.merge(
                        nodes.pop(step.left_key), nodes.pop(step.right_key), stats
                    )
        (root,) = nodes.values()
        if stats is not None:
            stats.tree_depth = max(stats.tree_depth, root.depth)
        return root

    def prove_sequence(
        self,
        state: State,
        transitions: Sequence[Transition],
    ) -> tuple[TransitionProof, State, CompositionStats]:
        """Prove a whole transition sequence, returning the single root proof.

        Proves every transition with Base and folds the results with
        :meth:`merge_all`.
        """
        if not transitions:
            raise SnarkError("cannot prove an empty transition sequence")
        started = time.perf_counter()
        stats = CompositionStats()
        with _TRACER.span(
            "prove/sequence", system=self.system.name, transitions=len(transitions)
        ):
            proofs = []
            current = state
            for transition in transitions:
                proof, current = self.prove_base(current, transition, stats)
                proofs.append(proof)
            root = self.merge_all(proofs, stats)
        stats.wall_seconds = time.perf_counter() - started
        stats.critical_path_depth = root.depth + 1
        return root, current, stats
