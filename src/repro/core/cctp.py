"""The mainchain-side CCTP state machine (paper §4).

:class:`CctpState` is the component a mainchain node plugs into block
processing.  It owns the sidechain registry, the withdrawal safeguard, the
nullifier set and the per-epoch certificate records, and implements the
verification rules of §4.1.2:

* sidechain registration (§4.2) with unique ledger ids;
* forward transfers credit the safeguard balance (§4.1.1);
* withdrawal certificates: submission-window rule, quality rule, SNARK
  verification against the registered key, safeguard debit — a
  higher-quality certificate for the same epoch *supersedes* the earlier one
  (its payouts are cancelled and its withdrawal refunded);
* ceasing (Def. 4.2): a sidechain with no certificate for epoch ``i`` by the
  end of the submission window of ``i`` is ceased;
* BTR pre-validation and CSW payouts with nullifier double-spend prevention.

The state machine is apply-only: the host chain keeps a validated state per
block within its reorg horizon and switches between them on a mainchain
reorg (see :class:`repro.mainchain.chain.Blockchain`).  Adopted epochs are
contiguous from 0 (missing epoch ``i`` ceases a sidechain before epoch
``i + 1``'s window opens), so an entry holds its latest record, which links
to the epoch before: adopting or sealing builds one record, whatever the age.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterator

from repro.core.bootstrap import SidechainConfig
from repro.core.cow import CowDict, CowSet
from repro.core.safeguard import Safeguard
from repro.core.transfers import (
    BackwardTransferRequest,
    CeasedSidechainWithdrawal,
    ForwardTransfer,
    WithdrawalCertificate,
)
from repro.errors import (
    CertificateRejected,
    CctpError,
    NullifierReused,
    SafeguardViolation,
    SidechainActive,
    SidechainAlreadyExists,
    SidechainCeased,
    UnknownSidechain,
    VerificationFailure,
    ZendooError,
)
from repro.snark import proving
from repro import observability

_REGISTRY = observability.registry()
_WCERT_VERIFICATIONS = observability.SeriesByLabel(_REGISTRY.counter(
    "repro_cctp_wcert_total",
    "withdrawal-certificate verifications, by result",
    labelnames=("result",),
))
_BTR_VERIFICATIONS = observability.SeriesByLabel(_REGISTRY.counter(
    "repro_cctp_btr_total",
    "backward-transfer-request verifications, by result",
    labelnames=("result",),
))
_CSW_VERIFICATIONS = observability.SeriesByLabel(_REGISTRY.counter(
    "repro_cctp_csw_total",
    "ceased-sidechain-withdrawal verifications, by result",
    labelnames=("result",),
))
_SAFEGUARD_REJECTIONS = _REGISTRY.counter(
    "repro_cctp_safeguard_rejections_total",
    "operations rejected because they would overdraw the withdrawal safeguard",
).labels()


def _counted(verifications, rejected: type[ZendooError]):
    """Count each call on ``verifications{result}``: ``rejected`` when it
    raises ``rejected`` (a safeguard overdraw also counts on
    ``repro_cctp_safeguard_rejections_total``), else ``accepted``."""

    def decorate(method):
        @functools.wraps(method)
        def counted(*args, **kwargs):
            try:
                result = method(*args, **kwargs)
            except rejected as exc:
                if isinstance(exc, SafeguardViolation):
                    _SAFEGUARD_REJECTIONS.inc()
                verifications["rejected"].inc()
                raise
            verifications["accepted"].inc()
            return result

        return counted

    return decorate


def slot_append(slots: CowDict, height: int, item: bytes) -> None:
    """Add ``item`` to the slot of ``height`` in O(1), however full it is: a
    slot is a cons cell ``(item, previous_cell)``, None when empty."""
    slots[height] = (item, slots.get(height))


def slot_ids(cell: tuple | None) -> list:
    """The items of a slot's cell (:func:`slot_append`), in insertion order."""
    ids = []
    while cell is not None:
        ids.append(cell[0])
        cell = cell[1]
    return ids[::-1]


class SidechainStatus(enum.Enum):
    """Lifecycle of a registered sidechain as seen by the mainchain."""

    ACTIVE = "active"
    CEASED = "ceased"


@dataclass(frozen=True, slots=True)
class CertificateRecord:
    """The adopted certificate for one (sidechain, epoch); ``included_in_block``
    stays None until :meth:`CctpState.seal_block` names the block."""

    certificate: WithdrawalCertificate
    included_at_height: int
    included_in_block: bytes | None
    #: The adopted record of the epoch before this one (None for epoch 0).
    previous: "CertificateRecord | None" = field(default=None, compare=False, repr=False)


class CertificateHistory(Mapping):
    """Read-only ``epoch -> CertificateRecord`` view walking back from a
    sidechain's latest record (adopted epochs are contiguous from 0): ``get``
    walks back to its epoch, so a reader of many epochs takes ``items()``."""

    __slots__ = ("_latest",)

    def __init__(self, latest: CertificateRecord | None) -> None:
        self._latest = latest

    def __len__(self) -> int:
        return 0 if self._latest is None else self._latest.certificate.epoch_id + 1

    def __getitem__(self, epoch: int) -> CertificateRecord:
        record = self.get(epoch)
        if record is None:
            raise KeyError(epoch)
        return record

    def get(self, epoch: int, default=None):
        # a miss (say, a new epoch's first certificate) raises no KeyError
        record = self._latest
        while record is not None and record.certificate.epoch_id > epoch:
            record = record.previous
        return record if record is not None and record.certificate.epoch_id == epoch else default

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def values(self) -> list[CertificateRecord]:
        records, record = [], self._latest
        while record is not None:
            records.append(record)
            record = record.previous
        return records[::-1]

    def items(self) -> list[tuple[int, CertificateRecord]]:
        return list(enumerate(self.values()))


@dataclass(frozen=True, slots=True)
class SidechainEntry:
    """Mainchain-side record of one sidechain, an immutable value: a change
    stores a new entry (:meth:`CctpState._replace`), so snapshots share entries
    outright; ``latest`` is the last adopted epoch's record."""

    config: SidechainConfig
    status: SidechainStatus = SidechainStatus.ACTIVE
    ceased_at_height: int | None = None
    latest: CertificateRecord | None = None
    #: Hash of the MC block containing the most recent adopted certificate —
    #: the ``H(Bw)`` anchoring BTR/CSW sysdata (Def. 4.5).
    last_cert_block_hash: bytes = b"\x00" * 32

    @property
    def certificates(self) -> CertificateHistory:
        return CertificateHistory(self.latest)


class CctpState:
    """All CCTP state of one mainchain node (registry + safeguard + records).

    The host chain calls :meth:`advance_to_height` once per new block height
    so ceasing deadlines fire deterministically, the ``process_*`` methods
    while connecting the block's transactions, and :meth:`seal_block` once
    the block's hash exists.  Each ``process_*`` call either applies in full
    or raises with the state untouched.
    """

    def __init__(self) -> None:
        #: ledger id -> :class:`SidechainEntry`.
        self.sidechains: CowDict = CowDict()
        #: Consumed BTR and CSW nullifiers of every sidechain, each stored
        #: as ``ledger_id + nullifier`` (ledger ids are 32 bytes).
        self.nullifiers: CowSet = CowSet()
        self.safeguard = Safeguard()
        #: Ceasing-deadline index: height -> the ledger ids whose earliest
        #: uncertified epoch's submission window closes there, as a cons
        #: cell (:func:`slot_append`).  Entries may be stale or repeated (a
        #: later certificate pushed the real deadline forward, or superseded
        #: one); :meth:`advance_to_height` re-checks before ceasing.
        self._deadlines: CowDict = CowDict()
        #: Highest height whose deadline slots have been processed.
        self._advanced_to: int = -1
        #: Ledger ids whose latest record was adopted since the last
        #: :meth:`seal_block` (its block has no hash yet).
        self._unsealed: set[bytes] = set()

    def copy(self) -> "CctpState":
        """Copy-on-write snapshot for fork-branch validation.

        O(entries and nullifiers written since the last snapshot), not
        O(registered sidechains): the registry, nullifier set, safeguard
        balances and deadline index share sealed layers, and the entries,
        being values, are shared outright.
        """
        clone = CctpState()
        clone.sidechains = self.sidechains.copy()
        clone.nullifiers = self.nullifiers.copy()
        clone.safeguard = self.safeguard.copy()
        clone._deadlines = self._deadlines.copy()
        clone._advanced_to = self._advanced_to
        clone._unsealed = set(self._unsealed)
        return clone

    def _replace(self, entry: SidechainEntry, **changes) -> SidechainEntry:
        """Store ``entry`` with ``changes`` applied as its sidechain's entry."""
        entry = replace(entry, **changes)
        self.sidechains[entry.config.ledger_id] = entry
        return entry

    # -- registry ---------------------------------------------------------------

    def register_sidechain(self, config: SidechainConfig, height: int) -> None:
        """Create a sidechain (§4.2); ledger ids are first-come unique."""
        if config.ledger_id in self.sidechains:
            raise SidechainAlreadyExists(
                f"ledger id {config.ledger_id.hex()[:16]} already registered"
            )
        if config.start_block <= height:
            raise CctpError(
                "sidechain start_block must be strictly after the declaring block"
            )
        entry = SidechainEntry(config=config)
        self.sidechains[config.ledger_id] = entry
        self.safeguard.open(config.ledger_id)
        self._index_deadline(config.ledger_id, entry)

    def entry(self, ledger_id: bytes) -> SidechainEntry:
        """The registry entry, raising :class:`UnknownSidechain` when absent."""
        try:
            return self.sidechains[ledger_id]
        except KeyError:
            raise UnknownSidechain(f"unknown ledger id {ledger_id.hex()[:16]}")

    def balance(self, ledger_id: bytes) -> int:
        """The safeguard balance of a sidechain."""
        self.entry(ledger_id)
        return self.safeguard.balance(ledger_id)

    def is_active(self, ledger_id: bytes, height: int) -> bool:
        """True when the sidechain exists, has started and has not ceased."""
        entry = self.sidechains.get(ledger_id)
        if entry is None or entry.status is SidechainStatus.CEASED:
            return False
        return entry.config.schedule.is_active_at(height)

    # -- forward transfers --------------------------------------------------------

    def process_forward_transfer(self, *fts: ForwardTransfer, height: int) -> None:
        """Credit forward transfers to active sidechains (§4.1.1), all or none.

        Def. 4.1 requires "a previously created and active sidechain": a
        transfer before the sidechain's ``start_block`` is rejected — the
        sidechain has no schedule yet and could never observe the deposit.
        Every transfer is checked before the first is credited.
        """
        for ft in fts:
            entry = self.entry(ft.ledger_id)
            if entry.status is SidechainStatus.CEASED:
                raise SidechainCeased("forward transfer to a ceased sidechain")
            if not entry.config.schedule.is_active_at(height):
                raise CctpError(
                    f"forward transfer at height {height} precedes sidechain "
                    f"activation at {entry.config.start_block}"
                )
            if ft.amount <= 0:
                raise CctpError("forward transfer amount must be positive")
        for ft in fts:
            self.safeguard.deposit(ft.ledger_id, ft.amount)

    # -- withdrawal certificates -----------------------------------------------------

    @_counted(_WCERT_VERIFICATIONS, CctpError)
    def process_certificate(
        self,
        wcert: WithdrawalCertificate,
        height: int,
        block_hash_at: Callable[[int], bytes],
    ) -> WithdrawalCertificate | None:
        """Validate and adopt a withdrawal certificate (§4.1.2's rule list).

        ``block_hash_at(height)`` must return the active-chain block hash —
        used to build ``wcert_sysdata``.  Returns the superseded certificate
        of the same epoch when the new one replaces it (the host chain then
        cancels the superseded payouts), else None.  The record names its
        block once the host chain calls :meth:`seal_block`.

        Raises :class:`CertificateRejected` on any rule violation.  Every
        verification is counted on ``repro_cctp_wcert_total{result}``;
        safeguard overdraw attempts additionally count on
        ``repro_cctp_safeguard_rejections_total``.
        """
        entry = self.entry(wcert.ledger_id)
        schedule = entry.config.schedule

        # Rule 1: active sidechain.
        if entry.status is SidechainStatus.CEASED:
            raise CertificateRejected("certificate for a ceased sidechain")

        # Rule 2: correct submission window.
        if not schedule.in_submission_window(wcert.epoch_id, height):
            raise CertificateRejected(
                f"certificate for epoch {wcert.epoch_id} outside its submission "
                f"window at height {height}"
            )

        # Rule 3: strictly increasing quality within the epoch.
        adopted = entry.certificates.get(wcert.epoch_id)
        if adopted is not None and wcert.quality <= adopted.certificate.quality:
            raise CertificateRejected(
                f"quality {wcert.quality} does not exceed adopted quality "
                f"{adopted.certificate.quality}"
            )

        # Proofdata arity must match the registered schema.
        if not entry.config.wcert_proofdata.matches(wcert.proofdata):
            raise CertificateRejected("proofdata does not match declared schema")

        # Rule 4: the SNARK proof verifies under the registered key against
        # the mainchain-enforced ``wcert_sysdata`` (Def. 4.4), after every
        # free check above.
        h_prev = (
            block_hash_at(schedule.last_height(wcert.epoch_id - 1))
            if wcert.epoch_id > 0
            else b"\x00" * 32
        )
        h_last = block_hash_at(schedule.last_height(wcert.epoch_id))
        public_input = wcert.public_input(h_prev, h_last)
        if not proving.verify(entry.config.wcert_vk, public_input, wcert.proof):
            raise CertificateRejected("SNARK proof verification failed")

        # Safeguard: refund a superseded certificate before debiting.
        superseded = adopted.certificate if adopted is not None else None
        if superseded is not None:
            self.safeguard.refund(wcert.ledger_id, superseded.withdrawn_amount)
        try:
            self.safeguard.withdraw(wcert.ledger_id, wcert.withdrawn_amount)
        except CctpError:
            if superseded is not None:
                self.safeguard.withdraw(
                    wcert.ledger_id, superseded.withdrawn_amount
                )
            raise

        # A superseded record is the latest: its epoch's window is the open one.
        prior = entry.latest if adopted is None else adopted.previous
        entry = self._replace(entry, latest=CertificateRecord(wcert, height, None, prior))
        self._unsealed.add(wcert.ledger_id)
        # Adoption may have pushed the ceasing deadline; index the new slot.
        self._index_deadline(wcert.ledger_id, entry)
        return superseded

    def seal_block(self, block_hash: bytes) -> None:
        """Name the block holding the certificates adopted since the last seal.

        A block's hash exists only once its body is final, so the host chain
        calls this after the last transaction; ``last_cert_block_hash`` (the
        ``H(Bw)`` of later BTR/CSW proofs) moves here too.
        """
        for ledger_id in self._unsealed:
            entry = self.entry(ledger_id)
            record = entry.latest
            latest = CertificateRecord(
                record.certificate, record.included_at_height, block_hash, record.previous
            )
            self._replace(entry, latest=latest, last_cert_block_hash=block_hash)
        self._unsealed = set()

    # -- ceasing -------------------------------------------------------------------

    def _index_deadline(self, ledger_id: bytes, entry: SidechainEntry) -> None:
        """Record the entry's current ceasing deadline in the height index.

        O(1) however many sidechains share the height (:func:`slot_append`).
        Old entries for the same sidechain, in other slots or repeated in
        this one after a supersession, stay in place and are skipped when
        their height is reached (re-checking the live deadline is O(1), and
        each slot is visited once).
        """
        deadline = entry.config.schedule.ceasing_height(len(entry.certificates))
        slot_append(self._deadlines, deadline, ledger_id)

    def advance_to_height(self, height: int) -> list[bytes]:
        """Fire ceasing deadlines up to ``height``; returns newly ceased ids.

        A sidechain ceases at the first height past the submission window of
        the earliest epoch it failed to certify (Def. 4.2).  Deadlines are
        indexed by height at registration and certificate adoption, so this
        is O(entries indexed at the heights passed), not O(registered
        sidechains): blocks that cease nothing pay only the (usually empty)
        slot lookups.  A slot's ids are handled in insertion order, and an
        id repeated in a slot finds its sidechain ceased the second time, so
        the result lists each sidechain once.
        """
        newly_ceased: list[bytes] = []
        if height <= self._advanced_to:
            return newly_ceased
        for slot_height in range(self._advanced_to + 1, height + 1):
            for ledger_id in slot_ids(self._deadlines.pop(slot_height, None)):
                entry = self.sidechains.get(ledger_id)
                if entry is None or entry.status is SidechainStatus.CEASED:
                    continue
                # Re-derive the live deadline: a certificate adopted after
                # this slot was indexed may have pushed it forward (the new
                # slot is indexed separately), making this one stale.
                deadline = entry.config.schedule.ceasing_height(len(entry.certificates))
                if deadline <= height:
                    self._replace(
                        entry,
                        status=SidechainStatus.CEASED,
                        ceased_at_height=deadline,
                    )
                    newly_ceased.append(ledger_id)
        self._advanced_to = height
        return newly_ceased

    # -- mainchain-managed withdrawals ---------------------------------------------

    def process_btr(self, *btrs: BackwardTransferRequest, height: int) -> None:
        """Pre-validate BTRs (§4.1.2.1), all or none; no coins move on the MC.

        Every request, proof included, is checked before the first nullifier
        is consumed.  Verifications are counted on
        ``repro_cctp_btr_total{result}``.
        """
        claimed: set[bytes] = set()
        for btr in btrs:
            try:
                entry = self.entry(btr.ledger_id)
                if entry.status is SidechainStatus.CEASED:
                    raise SidechainCeased("BTR for a ceased sidechain")
                if entry.config.btr_vk is None:
                    raise CctpError("sidechain did not register a BTR verification key")
                if not entry.config.btr_proofdata.matches(btr.proofdata):
                    raise CctpError("BTR proofdata does not match declared schema")
                if btr.amount <= 0:
                    raise CctpError("BTR amount must be positive")
                self._check_nullified_proof(entry, btr, entry.config.btr_vk, claimed)
            except ZendooError:
                _BTR_VERIFICATIONS["rejected"].inc()
                raise
            _BTR_VERIFICATIONS["accepted"].inc()
            claimed.add(btr.ledger_id + btr.nullifier)
        for btr in btrs:
            self.nullifiers.add(btr.ledger_id + btr.nullifier)

    @_counted(_CSW_VERIFICATIONS, ZendooError)
    def process_csw(
        self, csw: CeasedSidechainWithdrawal, height: int
    ) -> tuple[bytes, int]:
        """Validate a CSW; returns ``(receiver, amount)`` for direct payout.

        Verifications are counted on ``repro_cctp_csw_total{result}``;
        safeguard overdraw attempts additionally count on
        ``repro_cctp_safeguard_rejections_total``.
        """
        entry = self.entry(csw.ledger_id)
        if entry.status is not SidechainStatus.CEASED:
            raise SidechainActive("CSW is only valid for a ceased sidechain")
        if entry.config.csw_vk is None:
            raise CctpError("sidechain did not register a CSW verification key")
        if not entry.config.csw_proofdata.matches(csw.proofdata):
            raise CctpError("CSW proofdata does not match declared schema")
        if csw.amount <= 0:
            raise CctpError("CSW amount must be positive")
        self._check_nullified_proof(entry, csw, entry.config.csw_vk)
        self.safeguard.withdraw(csw.ledger_id, csw.amount)
        self.nullifiers.add(csw.ledger_id + csw.nullifier)
        return csw.receiver, csw.amount

    def _check_nullified_proof(
        self,
        entry: SidechainEntry,
        request: BackwardTransferRequest | CeasedSidechainWithdrawal,
        vk: proving.VerifyingKey,
        claimed: Container[bytes] = (),
    ) -> None:
        """Fresh nullifier (``claimed``: keys taken earlier in the same
        transaction), no certificate earlier in the open block, valid proof."""
        key = request.ledger_id + request.nullifier
        if key in self.nullifiers or key in claimed:
            raise NullifierReused(
                f"nullifier {request.nullifier.hex()[:16]} already consumed"
            )
        if request.ledger_id in self._unsealed:
            raise VerificationFailure(
                "sidechain was certified earlier in this block: the proof "
                "would have to commit to the hash of the block that contains it"
            )
        proving.expect_valid(
            vk, request.public_input(entry.last_cert_block_hash), request.proof
        )

    # -- introspection -----------------------------------------------------------

    def adopted_certificate(
        self, ledger_id: bytes, epoch: int
    ) -> WithdrawalCertificate | None:
        """The currently adopted certificate for an epoch, if any."""
        record = self.entry(ledger_id).certificates.get(epoch)
        return record.certificate if record else None

    def status(self, ledger_id: bytes) -> SidechainStatus:
        """Lifecycle status of a sidechain."""
        return self.entry(ledger_id).status
