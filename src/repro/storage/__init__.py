"""Durable storage engine: an append-only log + state snapshots behind
:class:`StateStore`.

The public surface:

* :class:`StateStore` — the durability contract (stage/commit/append,
  write_snapshot, latest_snapshot/records, reset, read-only mode);
* :class:`MemoryStore` — the contract in process memory (tests, defaults);
* :class:`FileStore` — file-segment backed log + snapshot files, synced
  at every commit and snapshot;
* record kinds (``SC_BLOCK`` …) and :func:`inspect_store` for the CLI
  explorer.

See ``docs/STORAGE.md`` for the on-disk layout and recovery semantics.
"""

from repro.errors import StorageError
from repro.storage.explorer import format_inspection, inspect_store
from repro.storage.filestore import FileStore
from repro.storage.pages import (
    DEFAULT_CACHE_PAGES,
    DEFAULT_PAGE_SIZE,
    DictNodeStore,
    FilePageBacking,
    NodeStore,
    PagedNodeStore,
)
from repro.storage.records import (
    KIND_NAMES,
    MC_BLOCK,
    SC_BLOCK,
    SC_CERT,
    SC_TX,
    frame_record,
    read_wal,
)
from repro.storage.store import (
    MemoryStore,
    StateStore,
    count_disk_recovery,
)

__all__ = [
    "DEFAULT_CACHE_PAGES",
    "DEFAULT_PAGE_SIZE",
    "DictNodeStore",
    "FilePageBacking",
    "FileStore",
    "NodeStore",
    "PagedNodeStore",
    "KIND_NAMES",
    "MC_BLOCK",
    "MemoryStore",
    "SC_BLOCK",
    "SC_CERT",
    "SC_TX",
    "StateStore",
    "StorageError",
    "count_disk_recovery",
    "format_inspection",
    "frame_record",
    "inspect_store",
    "read_wal",
]
