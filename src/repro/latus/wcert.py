"""The Latus withdrawal-certificate SNARK and builder (paper §5.5.3.1).

The certificate for withdrawal epoch ``i`` commits to the post-epoch state
and proves, against the mainchain-enforced public input
``(quality, MH(BTList), H(B^{i-1}_last), H(B^i_last), MH(proofdata))``, the
full "WCert SNARK Statement" box of §5.5.3.1:

1. ``SB^i_last`` is the epoch's last block and chains back to the previous
   certificate's block;
2. the committed MST root is the root of the final state's MST;
3. the recursive epoch proof attests the transition between the states
   committed by consecutive certificates;
4. every MC block of the withdrawal epoch is referenced (endpoint binding
   to the public block hashes; contiguity is part of block validity,
   enforced per-reference during state transition);
5. ``BTList`` equals the final state's backward-transfer list;
6. ``quality`` is the height of ``SB^i_last``;
7. ``mst_delta`` reflects exactly the MST slots touched during the epoch.

Latus ``proofdata`` is ``(H(SB^i_last), H(state[MST]), mst_delta)`` as three
field elements; the ``MH(proofdata)`` public value is recomputed with the
real MiMC R1CS gadget inside the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.bootstrap import SidechainConfig
from repro.core.transfers import (
    BackwardTransfer,
    WithdrawalCertificate,
    bt_list_root,
)
from repro.crypto.field import element_from_bytes
from repro.errors import CertificateMismatch
from repro.latus.block import SidechainBlock
from repro.latus.mst_delta import MstDelta
from repro.latus.proofs import EpochProver
from repro.latus.state import LatusState
from repro.snark import proving
from repro.snark.circuit import Circuit, CircuitBuilder
from repro.snark.gadgets.mimc import mimc_hash_gadget
from repro.snark.recursive import TransitionProof


@dataclass(frozen=True)
class WCertWitness:
    """Everything the certificate prover holds (never sent to the MC)."""

    epoch_proof: TransitionProof
    start_state_digest: int
    final_state: LatusState
    bt_list: tuple[BackwardTransfer, ...]
    last_block: SidechainBlock
    prev_epoch_last_block_hash: bytes
    #: Hashes of the MC blocks referenced during the epoch, in MC order.
    referenced_mc_hashes: tuple[bytes, ...]
    mst_delta: MstDelta
    #: MST positions actually touched during the epoch (from the state tree).
    touched_positions: frozenset[int]


class LatusWCertCircuit(Circuit):
    """The withdrawal-certificate constraint system for Latus sidechains."""

    circuit_id = "latus/wcert-v1"

    def __init__(self, prover: EpochProver) -> None:
        self._prover = prover

    def synthesize(
        self,
        builder: CircuitBuilder,
        public_input: Sequence[int],
        witness: WCertWitness,
    ) -> None:
        quality, mh_btlist, h_prev_last, h_last, mh_proofdata = public_input
        quality_wire = builder.alloc_public(quality)
        builder.alloc_public(mh_btlist)
        builder.alloc_public(h_prev_last)
        h_last_wire = builder.alloc_public(h_last)

        # --- rule 3: the recursive epoch proof verifies and spans exactly
        # the states committed by the previous and this certificate.
        builder.assert_native(
            self._prover.verify_epoch_proof(witness.epoch_proof),
            "wcert: epoch state-transition proof invalid",
        )
        builder.assert_native(
            witness.epoch_proof.from_digest == witness.start_state_digest,
            "wcert: epoch proof does not start at the previous state",
        )
        builder.assert_native(
            witness.epoch_proof.to_digest == witness.final_state.digest(),
            "wcert: epoch proof does not end at the final state",
        )

        # --- rules 1 & 6: SB_last chains correctly and quality = height.
        builder.assert_native(
            witness.last_block.state_digest == witness.final_state.digest(),
            "wcert: last block does not commit to the final state",
        )
        # the height is a witness value: a wire, not a matrix constant
        builder.enforce_equal(
            quality_wire,
            builder.alloc(witness.last_block.height),
            "wcert/quality-is-height",
        )

        # --- rule 4: the epoch's MC blocks are referenced; endpoints bind
        # to the mainchain-enforced public block hashes.
        builder.assert_native(
            bool(witness.referenced_mc_hashes),
            "wcert: no MC blocks referenced in the epoch",
        )
        first_fe = element_from_bytes(witness.referenced_mc_hashes[0])
        last_fe = element_from_bytes(witness.referenced_mc_hashes[-1])
        builder.assert_native(
            last_fe == h_last_wire.value,
            "wcert: last referenced MC block is not the epoch's last block",
        )
        if h_prev_last != 0:
            # Epoch 0 has no predecessor; later epochs must start right
            # after the previous epoch's last MC block.
            builder.assert_native(
                element_from_bytes(witness.prev_epoch_last_block_hash)
                == h_prev_last,
                "wcert: previous-epoch boundary mismatch",
            )
        builder.assert_native(
            first_fe != h_prev_last or len(witness.referenced_mc_hashes) == 1,
            "wcert: epoch references start inside the previous epoch",
        )

        # --- rule 5: BTList is the final state's backward-transfer list.
        builder.assert_native(
            tuple(witness.final_state.backward_transfers) == witness.bt_list,
            "wcert: BTList does not match the state's backward transfers",
        )
        builder.assert_native(
            element_from_bytes(bt_list_root(witness.bt_list)) == mh_btlist,
            "wcert: MH(BTList) mismatch",
        )

        # --- rule 7: mst_delta is exactly the touched-slot set.
        builder.assert_native(
            witness.mst_delta.touched == witness.touched_positions,
            "wcert: mst_delta does not match the touched MST slots",
        )

        # --- rule 2 + proofdata binding, with real R1CS: recompute
        # MH(proofdata) from (H(SB_last), mst_root, delta_digest) via MiMC.
        sb_last_fe = builder.alloc(element_from_bytes(witness.last_block.hash))
        mst_root_wire = builder.alloc(witness.final_state.mst_root)
        delta_wire = builder.alloc(witness.mst_delta.digest_field())
        recomputed = mimc_hash_gadget(
            builder, [sb_last_fe, mst_root_wire, delta_wire]
        )
        mh_proofdata_wire = builder.alloc_public(mh_proofdata)
        builder.enforce_equal(recomputed, mh_proofdata_wire, "wcert/mh-proofdata")


def latus_proofdata(
    last_block_hash: bytes, mst_root: int, delta: MstDelta
) -> tuple[int, int, int]:
    """Latus's certificate ``proofdata`` triple (§5.5.3.1)."""
    return (element_from_bytes(last_block_hash), mst_root, delta.digest_field())


def draft_certificate(
    ledger_id: bytes,
    epoch_id: int,
    last_block: SidechainBlock,
    bt_list: tuple[BackwardTransfer, ...],
    mst_root: int,
    delta: MstDelta,
) -> WithdrawalCertificate:
    """The certificate a closed epoch's values fix, with an all-zero proof."""
    return WithdrawalCertificate(
        ledger_id=ledger_id,
        epoch_id=epoch_id,
        quality=last_block.height,
        bt_list=bt_list,
        proofdata=latus_proofdata(last_block.hash, mst_root, delta),
        proof=proving.Proof(data=bytes(proving.PROOF_SIZE)),
    )


def check_certificate(
    candidate: WithdrawalCertificate,
    draft: WithdrawalCertificate,
    config: SidechainConfig,
    h_prev_epoch_last: bytes,
    h_epoch_last: bytes,
) -> None:
    """Raise :class:`~repro.errors.CertificateMismatch` naming the first field
    where ``candidate`` departs from ``draft``, or ``proof`` when its proof
    fails the mainchain's own check (Def. 2.3) under the registered key."""
    names = ("ledger_id", "epoch_id", "quality", "bt_list", *config.wcert_proofdata.fields)
    got, expected = (
        (c.ledger_id, c.epoch_id, c.quality, c.bt_list, *c.proofdata)
        for c in (candidate, draft)
    )
    for name, value, derived in zip(names, got, expected):
        if value != derived:
            raise CertificateMismatch(name)
    public_input = candidate.public_input(h_prev_epoch_last, h_epoch_last)
    if not proving.verify(config.wcert_vk, public_input, candidate.proof):
        raise CertificateMismatch("proof")


class WithdrawalCertificateBuilder:
    """Assembles, proves and packages certificates for the mainchain."""

    def __init__(self, ledger_id: bytes, prover: EpochProver) -> None:
        self.ledger_id = ledger_id
        self.prover = prover
        self._pk, _ = proving.setup(LatusWCertCircuit(prover))

    def build(
        self,
        epoch_id: int,
        witness: WCertWitness,
        h_prev_epoch_last: bytes,
        h_epoch_last: bytes,
    ) -> WithdrawalCertificate:
        """Produce the certificate, proving the full statement.

        ``h_prev_epoch_last``/``h_epoch_last`` are the epoch-boundary MC
        block hashes the mainchain will enforce in ``wcert_sysdata``.
        """
        draft = draft_certificate(
            self.ledger_id,
            epoch_id,
            witness.last_block,
            witness.bt_list,
            witness.final_state.mst_root,
            witness.mst_delta,
        )
        public_input = draft.public_input(h_prev_epoch_last, h_epoch_last)
        return replace(draft, proof=proving.prove(self._pk, public_input, witness))
