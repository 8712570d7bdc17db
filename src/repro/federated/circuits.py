"""Certificate and CSW circuits for the federated sidechain.

This is the paper's §4.1.2 alternative made concrete: "the sidechain may
adopt a centralized solution where the zk-SNARK just verifies that a
certificate is signed by an authorized entity (like in [5])".  The
verification key — fixed at sidechain registration — binds the federation's
member public keys and the signing threshold through the circuit's
parameter digest, so the mainchain-side verification interface is exactly
the same as Latus's while the trust model is entirely different.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.transfers import BackwardTransfer, bt_list_root
from repro.crypto.field import element_from_bytes
from repro.crypto.hashing import hash_bytes
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, Signature
from repro.encoding import Encoder
from repro.snark.circuit import Circuit, CircuitBuilder
from repro.snark.gadgets.mimc import mimc_hash_gadget

_CERT_DOMAIN = b"federated/cert-sig"
_EXIT_DOMAIN = b"federated/exit-sig"


@dataclass(frozen=True)
class Federation:
    """The authorized signer set and its threshold."""

    members: tuple[PublicKey, ...]
    threshold: int

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.members):
            raise ValueError("threshold must be in [1, len(members)]")

    def digest(self) -> bytes:
        """Binds the signer set into verification keys."""
        enc = Encoder().u32(self.threshold)
        enc.sequence(self.members, lambda e, m: e.var_bytes(m.to_bytes()))
        return hash_bytes(enc.done(), b"federated/federation")


def certificate_message(
    ledger_id: bytes,
    epoch_id: int,
    quality: int,
    bt_list: tuple[BackwardTransfer, ...],
    h_epoch_last: bytes,
    state_digest: int,
) -> bytes:
    """The message federation members co-sign to endorse a certificate.

    Covers everything the mainchain enforces in ``wcert_sysdata`` plus the
    committed state, so a signature cannot be replayed across epochs,
    branches or payload changes.
    """
    enc = (
        Encoder()
        .raw(ledger_id)
        .u64(epoch_id)
        .u64(quality)
        .raw(bt_list_root(bt_list))
        .raw(h_epoch_last)
        .field_element(state_digest)
    )
    return hash_bytes(enc.done(), _CERT_DOMAIN)


def exit_message(
    ledger_id: bytes, receiver: bytes, amount: int, nullifier: bytes
) -> bytes:
    """The message federation members co-sign to authorize a CSW exit."""
    enc = (
        Encoder().raw(ledger_id).var_bytes(receiver).u64(amount).var_bytes(nullifier)
    )
    return hash_bytes(enc.done(), _EXIT_DOMAIN)


def collect_signatures(
    members: Sequence[KeyPair], message: bytes
) -> tuple[tuple[int, Signature], ...]:
    """Have each key sign ``message``; returns (member index, signature)."""
    return tuple((i, kp.sign(message)) for i, kp in enumerate(members))


def _count_valid(
    federation: Federation,
    message: bytes,
    signatures: tuple[tuple[int, Signature], ...],
) -> int:
    seen: set[int] = set()
    valid = 0
    for index, signature in signatures:
        if index in seen or not 0 <= index < len(federation.members):
            continue
        seen.add(index)
        if federation.members[index].verify(message, signature):
            valid += 1
    return valid


@dataclass(frozen=True)
class FederatedWCertWitness:
    """Everything a federation prover holds for one certificate."""

    ledger_id: bytes
    epoch_id: int
    quality: int
    bt_list: tuple[BackwardTransfer, ...]
    h_epoch_last: bytes
    state_digest: int
    signatures: tuple[tuple[int, Signature], ...]


class FederatedWCertCircuit(Circuit):
    """WCert statement: a quorum endorsed exactly this certificate."""

    circuit_id = "federated/wcert-v1"

    def __init__(self, federation: Federation) -> None:
        self.federation = federation

    def parameters_digest(self) -> bytes:
        return self.federation.digest()

    def synthesize(
        self,
        builder: CircuitBuilder,
        public_input: Sequence[int],
        witness: FederatedWCertWitness,
    ) -> None:
        quality, mh_btlist, _h_prev, h_last, mh_proofdata = public_input
        quality_wire = builder.alloc_public(quality)
        builder.alloc_public(mh_btlist)
        builder.alloc_public(_h_prev)
        builder.alloc_public(h_last)

        # the public input is exactly what the witness describes
        builder.assert_native(
            element_from_bytes(bt_list_root(witness.bt_list)) == mh_btlist,
            "federated: MH(BTList) mismatch",
        )
        builder.assert_native(
            element_from_bytes(witness.h_epoch_last) == h_last,
            "federated: epoch-boundary block mismatch",
        )
        # the witness's quality is a wire, not a matrix constant
        builder.enforce_equal(
            quality_wire, builder.alloc(witness.quality), "federated/quality"
        )

        # the quorum check — the heart of this trust model
        message = certificate_message(
            witness.ledger_id,
            witness.epoch_id,
            witness.quality,
            witness.bt_list,
            witness.h_epoch_last,
            witness.state_digest,
        )
        valid = _count_valid(self.federation, message, witness.signatures)
        builder.assert_native(
            valid >= self.federation.threshold,
            f"federated: {valid} valid signatures < threshold "
            f"{self.federation.threshold}",
        )

        # proofdata = (state_digest,) bound in-circuit with real MiMC
        state_wire = builder.alloc(witness.state_digest)
        recomputed = mimc_hash_gadget(builder, [state_wire])
        mh_wire = builder.alloc_public(mh_proofdata)
        builder.enforce_equal(recomputed, mh_wire, "federated/mh-proofdata")


@dataclass(frozen=True)
class FederatedCswWitness:
    """Witness for a federation-authorized ceased-sidechain exit."""

    ledger_id: bytes
    receiver: bytes
    amount: int
    nullifier: bytes
    signatures: tuple[tuple[int, Signature], ...]


class FederatedCswCircuit(Circuit):
    """CSW statement: a quorum authorized this exact exit payment."""

    circuit_id = "federated/csw-v1"

    def __init__(self, federation: Federation) -> None:
        self.federation = federation

    def parameters_digest(self) -> bytes:
        return self.federation.digest()

    def synthesize(
        self,
        builder: CircuitBuilder,
        public_input: Sequence[int],
        witness: FederatedCswWitness,
    ) -> None:
        _h_bw, nullifier, receiver_fe, amount, mh_proofdata = public_input
        builder.alloc_public(_h_bw)
        builder.alloc_public(nullifier)
        builder.alloc_public(receiver_fe)
        amount_wire = builder.alloc_public(amount)
        builder.alloc_public(mh_proofdata)

        builder.assert_native(
            element_from_bytes(witness.nullifier) == nullifier,
            "federated-csw: nullifier mismatch",
        )
        builder.assert_native(
            element_from_bytes(hash_bytes(witness.receiver, b"zendoo/receiver"))
            == receiver_fe,
            "federated-csw: receiver mismatch",
        )
        # the witness's amount is a wire, not a matrix constant
        builder.enforce_equal(
            amount_wire, builder.alloc(witness.amount), "federated-csw/amount"
        )

        message = exit_message(
            witness.ledger_id, witness.receiver, witness.amount, witness.nullifier
        )
        valid = _count_valid(self.federation, message, witness.signatures)
        builder.assert_native(
            valid >= self.federation.threshold,
            f"federated-csw: {valid} valid signatures < threshold "
            f"{self.federation.threshold}",
        )
