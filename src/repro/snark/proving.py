"""The SNARK proving system: ``(Setup, Prove, Verify)`` (paper Def. 2.3).

SUBSTITUTION NOTICE (see DESIGN.md §4).  Python has no production zk-SNARK
proving stack, and the paper itself defers the concrete SNARK construction
to a separate publication.  This module therefore implements a **simulated
proving layer over a real arithmetization**:

* The arithmetization is real.  ``Prove`` runs the circuit's synthesis
  through the value-level :class:`~repro.snark.witness.WitnessChecker`,
  which evaluates *every* constraint of the statement on the wire values
  the witness induces; any unsatisfied constraint aborts proving with
  :class:`~repro.errors.UnsatisfiedConstraint`.  The sparse ``A``/``B``/``C``
  matrices themselves are materialised only by the reference
  :class:`~repro.snark.circuit.CircuitBuilder` (``Circuit.check``, the
  structural tests); the checker is pinned to it op-for-op, so the
  constraint counts reported in proving statistics are genuine either way.
* The proof object is simulated.  Instead of a pairing-based argument, the
  proof is a constant-size keyed binding tag over
  ``(verification key id, circuit digest, public input)``.  ``Verify``
  recomputes the tag in O(1).

Properties preserved (the ones the protocol relies on):

* **Completeness** — a satisfying witness always yields an accepting proof.
* **Knowledge soundness (within the process model)** — a valid tag can only
  be produced via ``Prove``, which refuses non-satisfying witnesses; flipping
  any byte of the proof, the public input, or using the wrong key rejects.
* **Succinctness** — proof size is a constant :data:`PROOF_SIZE` bytes and
  verification is constant-time, independent of circuit size.
* **Cost shape** — proving time scales with the number of constraints;
  verification time does not.

Properties **not** preserved: zero-knowledge in the cryptographic sense, and
public verifiability against an adversary who extracts the binding key from
a verification key object.  Neither is exercised by the protocol logic.
"""

from __future__ import annotations

import hashlib
import hmac
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro import observability
from repro.crypto.field import MODULUS
from repro.errors import SnarkError, VerificationFailure
from repro.snark.circuit import Circuit
from repro.snark.r1cs import R1CSStats
from repro.snark.witness import check_witness

_TRACER = observability.tracer()
_REGISTRY = observability.registry()
_BATCH_VERIFICATIONS = _REGISTRY.counter(
    "repro_snark_batch_verify_total",
    "proofs checked through batched verification entry points, by result",
    labelnames=("result",),
)

#: Constant size, in bytes, of every proof produced by this system.
PROOF_SIZE: int = 96

_SETUP_DOMAIN = b"zendoo/snark-setup"
_TAG_DOMAIN = b"zendoo/snark-tag"


def _digest_public_input(public_input: Sequence[int]) -> bytes:
    h = hashlib.blake2b(digest_size=32, person=b"zendoo/snark-pub")
    h.update(len(public_input).to_bytes(4, "little"))
    for value in public_input:
        h.update((value % MODULUS).to_bytes(32, "little"))
    return h.digest()


@dataclass(frozen=True)
class VerifyingKey:
    """The verifier half of a SNARK key pair.

    ``key_id`` identifies the bootstrapped circuit family; ``binding_key`` is
    the simulation's stand-in for the structured reference string.
    """

    circuit_id: str
    key_id: bytes
    binding_key: bytes

    def to_bytes(self) -> bytes:
        """Canonical serialization (used when registering keys on the MC)."""
        cid = self.circuit_id.encode()
        return (
            len(cid).to_bytes(2, "little") + cid + self.key_id + self.binding_key
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyingKey":
        """Inverse of :meth:`to_bytes`; raises :class:`SnarkError` if malformed."""
        n = int.from_bytes(data[:2], "little")
        rest = data[2 + n :]
        if len(rest) != 64:
            raise SnarkError("malformed verifying key")
        try:
            cid = data[2 : 2 + n].decode()
        except UnicodeDecodeError as exc:
            raise SnarkError(f"malformed verifying key: {exc}") from exc
        return cls(circuit_id=cid, key_id=rest[:32], binding_key=rest[32:])


@dataclass(frozen=True)
class ProvingKey:
    """The prover half: carries the circuit itself plus the binding key."""

    circuit: Circuit
    verifying_key: VerifyingKey


@dataclass(frozen=True)
class Proof:
    """A constant-size proof object.

    ``data`` is :data:`PROOF_SIZE` bytes: 32 bytes of key id followed by a
    64-byte binding tag.  The size never depends on the statement.
    """

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != PROOF_SIZE:
            raise SnarkError(f"proof must be {PROOF_SIZE} bytes, got {len(self.data)}")

    @property
    def size_bytes(self) -> int:
        """Proof size in bytes (constant)."""
        return len(self.data)

    def to_bytes(self) -> bytes:
        """Canonical serialization."""
        return self.data

    @classmethod
    def from_bytes(cls, data: bytes) -> "Proof":
        """Inverse of :meth:`to_bytes`."""
        return cls(data=data)


@dataclass(frozen=True)
class ProveResult:
    """A proof together with the statistics of the synthesis that produced it."""

    proof: Proof
    stats: R1CSStats
    prove_seconds: float


def setup(circuit: Circuit) -> tuple[ProvingKey, VerifyingKey]:
    """Bootstrap the SNARK for ``circuit`` — the paper's ``Setup(C, 1^λ)``.

    Deterministic in the circuit identity so that independently-bootstrapped
    nodes agree on keys; the derived ``binding_key`` plays the role of the
    reference string.
    """
    if not circuit.circuit_id:
        raise SnarkError("circuit must define a stable circuit_id")
    seed = hashlib.blake2b(
        circuit.circuit_id.encode() + b"\x00" + circuit.parameters_digest(),
        digest_size=32,
        person=_SETUP_DOMAIN[:16],
    ).digest()
    key_id = hashlib.blake2b(seed, digest_size=32, person=b"zendoo/key-id").digest()
    binding_key = hashlib.blake2b(seed, digest_size=32, person=b"zendoo/bind-key").digest()
    vk = VerifyingKey(circuit_id=circuit.circuit_id, key_id=key_id, binding_key=binding_key)
    return ProvingKey(circuit=circuit, verifying_key=vk), vk


def _binding_tag(vk: VerifyingKey, public_digest: bytes) -> bytes:
    h = hashlib.blake2b(
        digest_size=64, key=vk.binding_key, person=_TAG_DOMAIN[:16]
    )
    h.update(vk.key_id)
    h.update(public_digest)
    return h.digest()


def prove(pk: ProvingKey, public_input: Sequence[int], witness: Any) -> Proof:
    """Produce a proof — the paper's ``Prove(pk, a, w)``.

    Synthesizes the circuit, checking every constraint; raises
    :class:`~repro.errors.UnsatisfiedConstraint` if ``(a, w)`` is not a
    satisfying assignment.
    """
    return prove_with_stats(pk, public_input, witness).proof


def prove_with_stats(
    pk: ProvingKey, public_input: Sequence[int], witness: Any
) -> ProveResult:
    """Like :func:`prove` but also returns synthesis statistics and timing."""
    started = time.perf_counter()
    stats = check_witness(pk.circuit, public_input, witness)
    tag = _binding_tag(pk.verifying_key, _digest_public_input(public_input))
    proof = Proof(data=pk.verifying_key.key_id + tag)
    return ProveResult(
        proof=proof,
        stats=stats,
        prove_seconds=time.perf_counter() - started,
    )


def verify(vk: VerifyingKey, public_input: Sequence[int], proof: Proof) -> bool:
    """Verify a proof — the paper's ``Verify(vk, a, π)``.

    Constant-time: one keyed hash over the (fixed-size) public input digest,
    regardless of how large the proven statement was.
    """
    if proof.data[:32] != vk.key_id:
        return False
    expected = _binding_tag(vk, _digest_public_input(public_input))
    return _constant_time_eq(proof.data[32:], expected)


def verify_many(
    jobs: Sequence[tuple[VerifyingKey, Sequence[int], Proof]]
) -> list[bool]:
    """Verify a batch of (possibly different-key) proofs in one pass.

    ``jobs`` is a sequence of ``(vk, public_input, proof)`` triples; the
    result is positionally identical to a loop of :func:`verify` calls.
    No block path calls it: a mainchain block checks each certificate's
    proof once, at rule 4 of ``CctpState.process_certificate``.  Every
    verdict is counted on ``repro_snark_batch_verify_total{result}``.
    """
    if not jobs:
        return []
    with _TRACER.span("snark/batched_verify", jobs=len(jobs)):
        results = [verify(vk, public_input, proof) for vk, public_input, proof in jobs]
    accepted = sum(results)
    if accepted:
        _BATCH_VERIFICATIONS.labels(result="valid").inc(accepted)
    if accepted < len(results):
        _BATCH_VERIFICATIONS.labels(result="invalid").inc(len(results) - accepted)
    return results


def expect_valid(vk: VerifyingKey, public_input: Sequence[int], proof: Proof) -> None:
    """Raise :class:`VerificationFailure` unless the proof verifies."""
    if not verify(vk, public_input, proof):
        raise VerificationFailure(
            f"proof for circuit '{vk.circuit_id}' failed verification"
        )


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    """Timing-safe tag comparison, delegated to :func:`hmac.compare_digest`.

    The C implementation is both genuinely constant-time (a Python-level
    byte loop leaks through interpreter dispatch) and an order of magnitude
    faster on the 64-byte tags compared here.
    """
    return hmac.compare_digest(a, b)
