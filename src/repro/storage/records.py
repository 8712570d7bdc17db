"""Log record kinds and framing for the durable store.

Every record is framed as ``u8 kind || var_bytes payload`` using the
canonical :class:`~repro.encoding.Encoder` — the same injective codec that
hashes protocol objects — so the write-ahead log is a plain concatenation
of canonical encodings, parseable with the same :class:`Decoder` used on
the network path.

A crash can leave a torn record at the end of the log (the process died
mid-``write`` or before the data hit the platter).  :func:`read_wal`
therefore stops at the first record whose frame is incomplete and reports
how many bytes were valid; the store truncates the file there, which is
exactly the "tail past the last fsync" the recovery contract allows a node
to lose.
"""

from __future__ import annotations

from repro.encoding import Encoder
from repro.errors import StorageError

#: A sidechain block committed to the Latus chain (payload:
#: :func:`repro.wire.encode_sidechain_block`).  Its transitions name every
#: leaf and backward transfer it writes, so it is the block's one record.
SC_BLOCK = 1
#: A wallet-submitted Latus transaction (payload: ``tx.encode()``).
SC_TX = 2
#: The certificate anchor of an epoch close: the withdrawal certificate it
#: built or checked and the committed state it certifies (payload:
#: :func:`repro.storage.codec.encode_anchor`); lets recovery restore the
#: anchor without closing the epoch again.
SC_CERT = 3
#: A mainchain block accepted into the block store (payload:
#: ``block.encode()``).
MC_BLOCK = 5

_KNOWN_KINDS = frozenset({SC_BLOCK, SC_TX, SC_CERT, MC_BLOCK})

KIND_NAMES = {
    SC_BLOCK: "sc_block",
    SC_TX: "sc_tx",
    SC_CERT: "sc_cert",
    MC_BLOCK: "mc_block",
}


def frame_record(kind: int, payload: bytes) -> bytes:
    """One framed WAL record: ``u8 kind || var_bytes payload``."""
    if kind not in _KNOWN_KINDS:
        raise StorageError(f"unknown WAL record kind {kind}")
    return Encoder().u8(kind).var_bytes(payload).done()


def read_wal(data: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """Parse a WAL byte string into ``(records, valid_length)``.

    ``valid_length`` is the byte offset of the first torn (incomplete)
    record, or ``len(data)`` when the log is clean.  A *complete* record
    with an unknown kind byte is corruption, not a torn tail, and raises
    :class:`StorageError` — silently skipping it could replay a chain with
    a hole in it.
    """
    records: list[tuple[int, bytes]] = []
    pos = 0
    size = len(data)
    while pos < size:
        if size - pos < 5:
            break  # torn: not even a kind byte + length prefix
        kind = data[pos]
        length = int.from_bytes(data[pos + 1 : pos + 5], "little")
        end = pos + 5 + length
        if end > size:
            break  # torn: payload truncated by the crash
        if kind not in _KNOWN_KINDS:
            raise StorageError(
                f"corrupt WAL: unknown record kind {kind} at offset {pos}"
            )
        records.append((kind, bytes(data[pos + 5 : end])))
        pos = end
    return records, pos

