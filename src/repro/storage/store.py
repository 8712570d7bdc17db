"""The :class:`StateStore` interface and the in-memory reference store.

A store is an append-only log plus at most one snapshot.  The log is the
one archive of a node's history: every block, wallet transaction and
certificate record is written to it once and never rewritten.  A snapshot
holds only a state and the number of log records it covers (a Latus node
writes none).  The contract every backend honours:

* :meth:`~StateStore.append` adds one record (a file store flushes it to
  the OS, unsynced); :meth:`~StateStore.stage` buffers a record and
  :meth:`~StateStore.commit` flushes the whole staged group with a single
  sync (one per block);
* :meth:`~StateStore.write_snapshot` commits the staged records, then
  atomically replaces the snapshot, stamped with the count of records it
  covers; the log is left as it is;
* :meth:`~StateStore.latest_snapshot` + :meth:`~StateStore.records` are
  the whole recovery read surface;
* only :meth:`~StateStore.reset` removes log records;
* a read-only store refuses every mutating call with
  :class:`~repro.errors.StorageError`.

:class:`MemoryStore` implements the contract in process memory: it is the
test double and the default when a caller wants store semantics without a
data directory.
"""

from __future__ import annotations

from repro import observability
from repro.errors import StorageError
from repro.storage.records import frame_record

_REGISTRY = observability.registry()
_WAL_RECORDS = _REGISTRY.counter(
    "repro_storage_wal_records_total",
    "records appended to a state-store write-ahead log",
).labels()
_SNAPSHOTS = _REGISTRY.counter(
    "repro_storage_snapshots_total",
    "state-store snapshots written (each one replaces the last; the log is kept)",
).labels()
_DISK_RECOVERIES = _REGISTRY.counter(
    "repro_storage_disk_recoveries_total",
    "node recoveries completed from a state store (no full peer resync)",
).labels()

def count_disk_recovery() -> None:
    """Count one completed recover-from-store (called by node recovery)."""
    _DISK_RECOVERIES.inc()


class StateStore:
    """Abstract durability contract shared by all store backends."""

    #: When True every mutating method raises :class:`StorageError`.
    read_only: bool = False

    # -- write side -------------------------------------------------------------

    def stage(self, kind: int, payload: bytes) -> None:
        """Buffer one record; durable only after the next :meth:`commit`."""
        raise NotImplementedError

    def commit(self) -> None:
        """Flush every staged record with one sync."""
        raise NotImplementedError

    def append(self, kind: int, payload: bytes) -> None:
        """Stage and commit one record."""
        self.stage(kind, payload)
        self.commit()

    def write_snapshot(self, epoch: int, sections: dict[str, bytes]) -> None:
        """Commit the staged records, then atomically replace the snapshot;
        it covers every record committed so far."""
        raise NotImplementedError

    def reset(self) -> None:
        """Wipe the store (snapshot and log), the one call that removes log
        records: a node rewrites its history after a reorg or a peer resync."""
        raise NotImplementedError

    # -- read side --------------------------------------------------------------

    def latest_snapshot(self) -> tuple[int, dict[str, bytes], int] | None:
        """``(epoch, sections, covered)`` of the current snapshot, or None;
        ``covered`` counts the log records written before it."""
        raise NotImplementedError

    def records(self) -> list[tuple[int, bytes]]:
        """Every committed log record, in order."""
        raise NotImplementedError

    def is_empty(self) -> bool:
        """True when the store holds neither a snapshot nor log records."""
        return self.latest_snapshot() is None and not self.records()

    def describe(self) -> dict:
        """Backend/location/size metadata for the CLI explorer."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Flush and release backend resources.  Idempotent."""

    def _check_writable(self) -> None:
        if self.read_only:
            raise StorageError("store is read-only")


class MemoryStore(StateStore):
    """The :class:`StateStore` contract in process memory (no durability)."""

    def __init__(self, read_only: bool = False) -> None:
        self.read_only = read_only
        self._wal: list[tuple[int, bytes]] = []
        self._staged: list[tuple[int, bytes]] = []
        self._snapshot: tuple[int, dict[str, bytes], int] | None = None

    def stage(self, kind: int, payload: bytes) -> None:
        self._check_writable()
        frame_record(kind, payload)  # validate the kind eagerly
        self._staged.append((kind, bytes(payload)))

    def commit(self) -> None:
        self._check_writable()
        self._wal.extend(self._staged)
        _WAL_RECORDS.inc(len(self._staged))
        self._staged.clear()

    def write_snapshot(self, epoch: int, sections: dict[str, bytes]) -> None:
        self._check_writable()
        self.commit()
        self._snapshot = (epoch, {k: bytes(v) for k, v in sections.items()}, len(self._wal))
        _SNAPSHOTS.inc()

    def reset(self) -> None:
        self._check_writable()
        self._staged.clear()
        self._wal.clear()
        self._snapshot = None

    def latest_snapshot(self) -> tuple[int, dict[str, bytes], int] | None:
        if self._snapshot is None:
            return None
        epoch, sections, covered = self._snapshot
        return epoch, dict(sections), covered

    def records(self) -> list[tuple[int, bytes]]:
        return list(self._wal)

    def describe(self) -> dict:
        return {
            "backend": "memory",
            "wal_records": len(self._wal),
            "snapshot_epoch": self._snapshot[0] if self._snapshot else None,
        }
