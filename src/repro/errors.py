"""Exception hierarchy for the Zendoo reproduction.

Every error raised by the library derives from :class:`ZendooError` so that
applications can catch library failures with a single ``except`` clause while
still being able to discriminate the layer that failed.
"""

from __future__ import annotations


class ZendooError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------


class CryptoError(ZendooError):
    """Base class for failures in the cryptographic substrate."""


class FieldError(CryptoError):
    """An operation on field elements was invalid (e.g. division by zero)."""


class MerkleError(CryptoError):
    """A Merkle tree operation failed (bad index, malformed proof, ...)."""


class DecodeError(ZendooError):
    """A byte string could not be decoded as the expected wire object."""


class SignatureError(CryptoError):
    """A signature could not be created or did not verify."""


# ---------------------------------------------------------------------------
# SNARK layer
# ---------------------------------------------------------------------------


class SnarkError(ZendooError):
    """Base class for proving-system failures."""


class UnsatisfiedConstraint(SnarkError):
    """A witness assignment does not satisfy the circuit's constraints.

    Raised by ``Prove`` — mirroring the paper's knowledge-soundness property:
    a proof can only be produced from a satisfying assignment.
    """


class SynthesisError(SnarkError):
    """The circuit could not be synthesized (missing assignment, bad shape)."""


class VerificationFailure(SnarkError):
    """A proof failed verification.

    Most verifier APIs return ``False`` instead; this is raised only by the
    ``expect_valid`` style helpers.
    """


# ---------------------------------------------------------------------------
# Mainchain layer
# ---------------------------------------------------------------------------


class MainchainError(ZendooError):
    """Base class for mainchain consensus/validation failures."""


class ValidationError(MainchainError):
    """A transaction or block violated a consensus rule."""


class UnknownBlock(MainchainError):
    """A referenced block is not known to the chain store."""


class OrphanBlock(MainchainError):
    """A block's parent is not known (cannot be connected yet)."""


class ReorgBelowHorizon(OrphanBlock):
    """A block's parent keeps no state: below the reorg horizon or a restored tip."""


class InsufficientFunds(ValidationError):
    """Transaction inputs do not cover its outputs."""


class DoubleSpend(ValidationError):
    """A transaction tries to spend an already-spent or unknown output."""


# ---------------------------------------------------------------------------
# Cross-chain transfer protocol (Zendoo core)
# ---------------------------------------------------------------------------


class CctpError(ZendooError):
    """Base class for cross-chain transfer protocol failures."""


class UnknownSidechain(CctpError):
    """The referenced ledger id is not registered."""


class SidechainAlreadyExists(CctpError):
    """A sidechain declaration reuses an existing ledger id."""


class SidechainCeased(CctpError):
    """The operation requires an active sidechain but it has ceased."""


class SidechainActive(CctpError):
    """The operation requires a ceased sidechain but it is still active."""


class CertificateRejected(CctpError):
    """A withdrawal certificate violated a CCTP rule (window, quality, proof)."""


class SafeguardViolation(CctpError):
    """A withdrawal would exceed the sidechain's safeguard balance."""


class NullifierReused(CctpError):
    """A BTR/CSW reuses an already-seen nullifier (double withdrawal)."""


# ---------------------------------------------------------------------------
# Durable storage
# ---------------------------------------------------------------------------


class StorageError(ZendooError):
    """A durable-store operation failed (corrupt record, write to a
    read-only store, recovery mismatch against the stored chain)."""


# ---------------------------------------------------------------------------
# Network simulator
# ---------------------------------------------------------------------------


class NetworkError(ZendooError):
    """Base class for network-simulator failures."""


class UnknownNetworkNode(NetworkError, KeyError):
    """A message was addressed to a node never registered with the simulator.

    Also derives from :class:`KeyError` for backward compatibility with
    callers that caught the untyped lookup error raised before this class
    existed.
    """

    def __str__(self) -> str:  # KeyError repr()s its args; we want a message
        return Exception.__str__(self)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(ZendooError):
    """A metrics-registry or tracing API was misused (bad labels, type clash)."""


# ---------------------------------------------------------------------------
# Latus sidechain
# ---------------------------------------------------------------------------


class LatusError(ZendooError):
    """Base class for Latus sidechain failures."""


class StateTransitionError(LatusError):
    """A transaction could not be applied to the sidechain state (the paper's
    ``update(t, s) = ⊥`` case)."""


class MstError(LatusError):
    """A Merkle State Tree operation failed (slot collision, bad position)."""


class ConsensusError(LatusError):
    """A sidechain block violated the consensus rules (slot leader, binding)."""


class CertificateMismatch(ConsensusError):
    """A mainchain certificate differs from the epoch a node derived, in ``reason``."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"certificate {reason} differs from the derived epoch")
        self.reason = reason


class NodeCrashed(LatusError):
    """The operation needs a running node but this one has crashed.

    Raised by :class:`~repro.latus.node.LatusNode` APIs between a
    :meth:`~repro.latus.node.LatusNode.crash` and the matching
    :meth:`~repro.latus.node.LatusNode.restart`."""


class ForgingError(LatusError):
    """A block could not be forged (not leader, no parent, ...)."""


class MarketError(LatusError):
    """A proof-market invariant failed (bad participant set, broken reward
    conservation, no eligible prover where the protocol requires one)."""
