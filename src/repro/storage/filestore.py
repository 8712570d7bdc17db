"""File-segment backed :class:`~repro.storage.store.StateStore`.

Data-directory layout (store version 2)::

    <data_dir>/
        MANIFEST            magic "ZENSTOR1" | u32 version | u64 snapshot_id
        wal.log             concatenated framed records (records.py)
        snapshot-<id>.bin   magic "ZENSNAP2" | u64 epoch | u64 covered |
                            sequence(text key, var_bytes section)

``wal.log`` only grows: it is the archive of every record, and only
:meth:`FileStore.reset` empties it.  A snapshot holds a state the log's
records rebuild on (a mainchain node's; a Latus node recovers from the log
alone and writes none) and ``covered``, the number of log records written
before it.  The MANIFEST
names the authoritative snapshot; snapshot files are written to a temp
name and renamed into place *before* the MANIFEST flips, so a crash leaves
either the old or the new snapshot over a log that only grew.  The log may
end in a torn record after a kill -9; opening the store truncates it to the
last whole record (that tail is the only data the recovery contract allows
to lose, and a peer ``sync_from`` covers it).  A version-1 store, which
kept the history in its snapshot sections, is refused at open.

Every :meth:`~FileStore.commit` and every snapshot is fsynced: one sync per
sidechain or mainchain block.  An :meth:`~FileStore.append` is flushed to
the OS but not synced.  A Latus node over the store also pages its MST
into an unnamed scratch file in the directory
(:class:`~repro.storage.pages.FilePageBacking`), which the layout above
never shows; a ``pages.seg`` an older build left there is neither read nor
touched.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.encoding import Decoder, Encoder
from repro.errors import DecodeError, StorageError
from repro.storage.records import frame_record, read_wal
from repro.storage.store import StateStore, _SNAPSHOTS, _WAL_RECORDS

_MANIFEST_MAGIC = b"ZENSTOR1"
_SNAPSHOT_MAGIC = b"ZENSNAP2"
_VERSION = 2


class FileStore(StateStore):
    """Append-only log + snapshot files under one data directory."""

    def __init__(self, data_dir: str | os.PathLike, read_only: bool = False) -> None:
        self.data_dir = Path(data_dir)
        self.read_only = read_only
        self._staged: list[bytes] = []
        #: Records in the log, staged ones excluded (a snapshot covers them).
        self._record_count = 0
        self._wal_file = None
        self._closed = False

        if not self.data_dir.is_dir():
            if read_only:
                raise StorageError(f"no store at {self.data_dir}")
            self.data_dir.mkdir(parents=True, exist_ok=True)

        self._manifest_path = self.data_dir / "MANIFEST"
        self._wal_path = self.data_dir / "wal.log"
        self._snapshot_id = self._read_manifest()
        if not read_only:
            if not self._manifest_path.exists():
                self._write_manifest(self._snapshot_id)
            self._repair_torn_tail()
            self._wal_file = open(self._wal_path, "ab")

    # -- manifest ----------------------------------------------------------------

    def _read_manifest(self) -> int:
        if not self._manifest_path.exists():
            return 0
        data = self._manifest_path.read_bytes()
        try:
            dec = Decoder(data)
            magic = dec.raw(8)
            version = dec.u32()
            snapshot_id = dec.u64()
            dec.done()
        except DecodeError as exc:
            raise StorageError(f"corrupt MANIFEST in {self.data_dir}: {exc}")
        if magic != _MANIFEST_MAGIC:
            raise StorageError(f"{self.data_dir} is not a repro store")
        if version != _VERSION:
            raise StorageError(
                f"unsupported store version {version} in {self.data_dir}: this build "
                f"reads version {_VERSION}, whose log keeps the history"
            )
        return snapshot_id

    def _write_manifest(self, snapshot_id: int) -> None:
        data = (
            Encoder().raw(_MANIFEST_MAGIC).u32(_VERSION).u64(snapshot_id).done()
        )
        self._atomic_write(self._manifest_path, data)
        self._snapshot_id = snapshot_id

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- log ---------------------------------------------------------------------

    def _repair_torn_tail(self) -> None:
        """Count the log's records and truncate a torn trailing record left
        by a crash mid-write."""
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        records, valid = read_wal(data)
        self._record_count = len(records)
        if valid < len(data):
            with open(self._wal_path, "r+b") as fh:
                fh.truncate(valid)

    def stage(self, kind: int, payload: bytes) -> None:
        self._check_writable()
        self._staged.append(frame_record(kind, payload))

    def commit(self) -> None:
        self._check_writable()
        self._flush(sync=True)

    def append(self, kind: int, payload: bytes) -> None:
        self._check_writable()
        self._staged.append(frame_record(kind, payload))
        self._flush(sync=False)

    def _flush(self, sync: bool) -> None:
        if self._staged:
            self._wal_file.write(b"".join(self._staged))
            self._record_count += len(self._staged)
            _WAL_RECORDS.inc(len(self._staged))
            self._staged.clear()
        self._wal_file.flush()
        if sync:
            os.fsync(self._wal_file.fileno())

    # -- snapshots ----------------------------------------------------------------

    def _snapshot_path(self, snapshot_id: int) -> Path:
        return self.data_dir / f"snapshot-{snapshot_id}.bin"

    def write_snapshot(self, epoch: int, sections: dict[str, bytes]) -> None:
        self._check_writable()
        self._flush(sync=True)
        new_id = self._snapshot_id + 1
        enc = Encoder().raw(_SNAPSHOT_MAGIC).u64(epoch).u64(self._record_count)
        enc.sequence(
            sorted(sections.items()),
            lambda e, item: e.text(item[0]).var_bytes(item[1]),
        )
        self._atomic_write(self._snapshot_path(new_id), enc.done())
        old_id = self._snapshot_id
        self._write_manifest(new_id)
        if old_id:
            self._snapshot_path(old_id).unlink(missing_ok=True)
        _SNAPSHOTS.inc()

    def latest_snapshot(self) -> tuple[int, dict[str, bytes], int] | None:
        if self._snapshot_id == 0:
            return None
        path = self._snapshot_path(self._snapshot_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise StorageError(f"MANIFEST names missing snapshot {path.name}")
        try:
            dec = Decoder(data)
            magic = dec.raw(8)
            if magic != _SNAPSHOT_MAGIC:
                raise StorageError(f"corrupt snapshot {path.name}")
            epoch = dec.u64()
            covered = dec.u64()
            sections = dict(dec.sequence(lambda d: (d.text(), d.var_bytes())))
            dec.done()
        except DecodeError as exc:
            raise StorageError(f"corrupt snapshot {path.name}: {exc}")
        return epoch, sections, covered

    def records(self) -> list[tuple[int, bytes]]:
        if not self._wal_path.exists():
            return []
        # a reader of a live store may see a torn last record: it is not
        # committed yet, and the writer repaired any older one at open
        return read_wal(self._wal_path.read_bytes())[0]

    # -- lifecycle -----------------------------------------------------------------

    def reset(self) -> None:
        self._check_writable()
        self._staged.clear()
        old_id = self._snapshot_id
        self._write_manifest(0)
        self._wal_file.close()
        self._wal_file = open(self._wal_path, "wb")
        self._record_count = 0
        if old_id:
            self._snapshot_path(old_id).unlink(missing_ok=True)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._wal_file is not None:
            if self._staged:
                self._flush(sync=True)
            self._wal_file.close()
            self._wal_file = None

    def describe(self) -> dict:
        wal_bytes = self._wal_path.stat().st_size if self._wal_path.exists() else 0
        snap = self._snapshot_path(self._snapshot_id)
        return {
            "backend": "file",
            "data_dir": str(self.data_dir),
            "read_only": self.read_only,
            "snapshot_id": self._snapshot_id,
            "snapshot_bytes": snap.stat().st_size if snap.exists() else 0,
            "wal_bytes": wal_bytes,
        }
