"""Sidechain bootstrapping (paper §4.2).

A sidechain is created by a mainchain transaction carrying a
:class:`SidechainConfig`: the ledger id, the withdrawal-epoch schedule, the
three SNARK verification keys (withdrawal certificate, BTR, CSW — the latter
two optional, Def. 4.5/4.6) and the declared ``proofdata`` schemas.  Once
included, the schedule of withdrawal epochs is fixed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.epochs import EpochSchedule
from repro.core.transfers import LEDGER_ID_BYTES
from repro.crypto.hashing import hash_bytes
from repro.encoding import Encoder
from repro.errors import CctpError
from repro.snark.proving import VerifyingKey


@dataclass(frozen=True)
class ProofdataSchema:
    """Declared structure of a sidechain's ``proofdata`` (§4.2).

    The mainchain knows only the number and names of the field elements; the
    semantics stay sidechain-private.  An empty schema means the operation is
    disabled only if its verification key is also absent.
    """

    fields: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        """Number of declared field elements."""
        return len(self.fields)

    def matches(self, proofdata: tuple[int, ...]) -> bool:
        """Shape check: the mainchain validates arity, not meaning."""
        return len(proofdata) == self.size


@dataclass(frozen=True)
class SidechainConfig:
    """Everything fixed at sidechain creation (§4.2's parameter table)."""

    ledger_id: bytes
    start_block: int
    epoch_len: int
    submit_len: int
    wcert_vk: VerifyingKey
    btr_vk: VerifyingKey | None = None
    csw_vk: VerifyingKey | None = None
    wcert_proofdata: ProofdataSchema = field(default_factory=ProofdataSchema)
    btr_proofdata: ProofdataSchema = field(default_factory=ProofdataSchema)
    csw_proofdata: ProofdataSchema = field(default_factory=ProofdataSchema)
    #: The deterministic withdrawal-epoch schedule, built once.
    schedule: EpochSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ledger_id) != LEDGER_ID_BYTES:
            raise CctpError(f"ledger id must be {LEDGER_ID_BYTES} bytes")
        # the schedule's constructor validates epoch_len/submit_len/start_block
        schedule = EpochSchedule(self.start_block, self.epoch_len, self.submit_len)
        object.__setattr__(self, "schedule", schedule)

    @property
    def supports_btr(self) -> bool:
        """True when the sidechain registered a BTR verification key."""
        return self.btr_vk is not None

    @property
    def supports_csw(self) -> bool:
        """True when the sidechain registered a CSW verification key."""
        return self.csw_vk is not None

    def encode(self) -> bytes:
        """Canonical byte encoding (hashed into the declaring transaction)."""
        enc = (
            Encoder()
            .raw(self.ledger_id)
            .u64(self.start_block)
            .u64(self.epoch_len)
            .u64(self.submit_len)
            .var_bytes(self.wcert_vk.to_bytes())
            .optional(self.btr_vk, lambda e, vk: e.var_bytes(vk.to_bytes()))
            .optional(self.csw_vk, lambda e, vk: e.var_bytes(vk.to_bytes()))
        )
        for schema in (self.wcert_proofdata, self.btr_proofdata, self.csw_proofdata):
            enc.sequence(schema.fields, lambda e, name: e.text(name))
        return enc.done()

    @property
    def id(self) -> bytes:
        """Digest of the full configuration."""
        return hash_bytes(self.encode(), b"zendoo/sc-config")
