"""Pluggable node stores for :class:`repro.crypto.fixed_merkle.FixedMerkleTree`.

The Merkle State Tree (paper §5.2, Fig. 9) historically kept every occupied
node in one flat ``dict[(level, index), int]``.  That is perfect up to a few
hundred thousand UTXOs and hopeless at millions: the dict alone costs
hundreds of megabytes and ``copy()`` duplicates all of it per block
snapshot.  This module makes the node storage a swappable policy:

* :class:`DictNodeStore` — the reference store.  A dict-of-dicts keyed by
  level, byte-identical behavior to the historical flat dict, with leaf
  enumeration in O(occupied leaves) instead of O(total nodes).
* :class:`PagedNodeStore` — fixed-size per-level node *pages* (1024 nodes
  per page by default, packed with the PR 8 wire codecs), a bounded LRU
  page cache with dirty-page tracking, batched prefetch of the distinct
  ancestor pages a ``set_leaves`` batch will touch, and spill/load through
  an append-only page segment.  ``copy()`` flushes dirty pages and shares
  the page table copy-on-write (:class:`repro.core.cow.CowDict`), so a
  snapshot costs O(resident pages), not O(occupied nodes).

Page payloads are canonical :class:`repro.encoding.Encoder` bytes — a
sorted sequence of ``(u32 offset, field_element value)`` pairs — so a page
round-trips bit-exactly through memory or disk.  The file backing
(:class:`FilePageBacking`) appends self-describing records
(``u8 level | u64 page_no | var_bytes payload``) to a ``pages.seg`` segment
next to the PR 8 ``wal.log``; because the segment is append-only, page refs
stay valid forever and copy-on-write sharing across tree snapshots is safe.

Every store implements the same five-method contract consumed by
``FixedMerkleTree``: ``get`` / ``set`` / ``delete`` / ``leaf_items`` /
``prefetch`` (plus ``flush``, ``copy`` and ``describe``).  Stores never see
the empty sentinel: the tree deletes a node instead of storing the
all-empty hash, so "absent" always means "empty subtree of that level".
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

from repro import observability
from repro.core.cow import CowDict
from repro.encoding import Decoder, Encoder
from repro.errors import DecodeError, StorageError

#: Magic first bytes of a page segment file.
PAGE_SEGMENT_MAGIC = b"ZENPAGE1"

#: Name of the page segment inside a node's data directory.
PAGE_SEGMENT_NAME = "pages.seg"

#: Default nodes per page; must be a power of two.
DEFAULT_PAGE_SIZE = 1024

#: Default page-cache bound (pages, not nodes).
DEFAULT_CACHE_PAGES = 256

_REGISTRY = observability.registry()
_PAGE_HITS = _REGISTRY.counter(
    "repro_mst_page_hits_total", "MST node lookups served from the page cache"
).labels()
_PAGE_MISSES = _REGISTRY.counter(
    "repro_mst_page_misses_total", "MST node lookups that required a page load"
).labels()
_PAGE_EVICTIONS = _REGISTRY.counter(
    "repro_mst_page_evictions_total", "pages evicted from the MST page cache"
).labels()
_PAGE_FLUSHES = _REGISTRY.counter(
    "repro_mst_page_flushes_total", "dirty MST pages written to the backing"
).labels()
_PAGE_LOADS = _REGISTRY.counter(
    "repro_mst_page_loads_total", "MST pages decoded from the backing"
).labels()
_RESIDENT_PAGES = _REGISTRY.gauge(
    "repro_mst_resident_pages", "MST pages currently resident in page caches"
).labels()


def encode_page(entries: dict[int, int]) -> bytes:
    """Canonical payload of one page: sorted ``(u32 offset, value)`` pairs."""
    enc = Encoder()
    enc.sequence(
        sorted(entries.items()),
        lambda e, kv: e.u32(kv[0]).field_element(kv[1]),
    )
    return enc.done()


def decode_page(payload: bytes) -> dict[int, int]:
    """Inverse of :func:`encode_page`."""
    dec = Decoder(payload)
    entries = dict(dec.sequence(lambda d: (d.u32(), d.field_element())))
    dec.done()
    return entries


class NodeStore:
    """Storage contract behind ``FixedMerkleTree``.

    ``level`` is the tree level (0 = leaves), ``index`` the node index within
    that level.  Implementations only hold *non-empty* nodes — the tree maps
    "absent" to the precomputed empty-subtree hash and deletes nodes whose
    value collapses back to it.
    """

    def get(self, level: int, index: int) -> int | None:
        raise NotImplementedError

    def set(self, level: int, index: int, value: int) -> bool:
        """Store ``value``; return True when the node was already present."""
        raise NotImplementedError

    def delete(self, level: int, index: int) -> bool:
        """Drop the node; return True when it was present."""
        raise NotImplementedError

    def leaf_items(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(index, value)`` over level-0 nodes, unordered.

        Runs in O(occupied leaves) — never scans interior levels.
        """
        raise NotImplementedError

    def prefetch(self, level: int, indices: Iterable[int]) -> None:
        """Hint that ``indices`` at ``level`` are about to be accessed."""

    def flush(self) -> None:
        """Persist any dirty state to the backing (no-op in memory)."""

    def copy(self) -> "NodeStore":
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (shared backings stay open)."""


class DictNodeStore(NodeStore):
    """The reference store: one plain dict per level.

    Identical read/write behavior to the historical flat
    ``dict[(level, index), int]`` — and because leaves live in their own
    dict, ``leaf_items`` touches only occupied leaves.
    """

    __slots__ = ("_levels",)

    def __init__(self) -> None:
        self._levels: dict[int, dict[int, int]] = {}

    def get(self, level: int, index: int) -> int | None:
        nodes = self._levels.get(level)
        if nodes is None:
            return None
        return nodes.get(index)

    def set(self, level: int, index: int, value: int) -> bool:
        nodes = self._levels.setdefault(level, {})
        was_present = index in nodes
        nodes[index] = value
        return was_present

    def delete(self, level: int, index: int) -> bool:
        nodes = self._levels.get(level)
        if nodes is None:
            return False
        return nodes.pop(index, None) is not None

    def leaf_items(self) -> Iterator[tuple[int, int]]:
        return iter(self._levels.get(0, {}).items())

    def copy(self) -> "DictNodeStore":
        clone = DictNodeStore()
        clone._levels = {level: dict(nodes) for level, nodes in self._levels.items()}
        return clone

    def _flat(self) -> dict[tuple[int, int], int]:
        return {
            (level, index): value
            for level, nodes in self._levels.items()
            for index, value in nodes.items()
        }

    def __eq__(self, other: object) -> bool:
        # Comparable to another store or to the historical flat
        # ``{(level, index): value}`` dict shape (used by tests).
        if isinstance(other, DictNodeStore):
            return self._flat() == other._flat()
        if isinstance(other, dict):
            return self._flat() == other
        return NotImplemented

    def describe(self) -> dict:
        return {
            "kind": "dict",
            "nodes": sum(len(nodes) for nodes in self._levels.values()),
            "levels": len(self._levels),
        }


class MemoryPageBacking:
    """Append-only page backing in process memory (tests, MemoryStore runs)."""

    def __init__(self) -> None:
        self._pages: list[bytes] = []

    def store(self, level: int, page_no: int, payload: bytes):
        self._pages.append(payload)
        return len(self._pages) - 1

    def load(self, ref) -> bytes:
        return self._pages[ref]

    def sync(self) -> None:
        pass

    def describe(self) -> dict:
        return {
            "kind": "memory",
            "page_records": len(self._pages),
            "bytes": sum(len(p) for p in self._pages),
        }

    def close(self) -> None:
        self._pages = []


class FilePageBacking:
    """Append-only ``pages.seg`` segment next to the PR 8 WAL.

    Records are self-describing (``u8 level | u64 page_no | var_bytes
    payload``) so the segment can be inspected offline without the page
    table; live refs are ``(offset, length)`` of the payload record.  The
    file is never rewritten or truncated: superseded page versions become
    garbage (bounded by workload, reported by ``describe``/the CLI
    explorer), and in exchange refs shared copy-on-write across tree
    snapshots — and refs persisted in an epoch snapshot — stay valid
    without any reference counting.
    """

    def __init__(self, path: str | os.PathLike, read_only: bool = False) -> None:
        self.path = Path(path)
        self.read_only = read_only
        if self.path.exists():
            mode = "rb" if read_only else "r+b"
            self._fh = open(self.path, mode)
            magic = self._fh.read(len(PAGE_SEGMENT_MAGIC))
            if magic != PAGE_SEGMENT_MAGIC:
                self._fh.close()
                raise StorageError(f"{self.path} is not a page segment")
        elif read_only:
            raise StorageError(f"page segment {self.path} does not exist")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w+b")
            self._fh.write(PAGE_SEGMENT_MAGIC)
            self._fh.flush()

    def store(self, level: int, page_no: int, payload: bytes):
        if self.read_only:
            raise StorageError("page segment opened read-only")
        record = Encoder().u8(level).u64(page_no).var_bytes(payload).done()
        self._fh.seek(0, os.SEEK_END)
        offset = self._fh.tell()
        self._fh.write(record)
        return (offset, len(record))

    def load(self, ref) -> bytes:
        offset, length = ref
        self._fh.flush()
        self._fh.seek(offset)
        record = self._fh.read(length)
        if len(record) != length:
            raise StorageError(f"truncated page record at {offset} in {self.path}")
        dec = Decoder(record)
        dec.u8()
        dec.u64()
        payload = dec.var_bytes()
        dec.done()
        return payload

    def sync(self) -> None:
        """Flush buffered appends and fsync — call before snapshotting refs."""
        if not self.read_only:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def scan(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(level, page_no, payload_len)`` for every record on disk.

        Offline inspection helper; tolerates a torn tail (stops at it).
        """
        self._fh.flush()
        with open(self.path, "rb") as fh:
            data = fh.read()
        pos = len(PAGE_SEGMENT_MAGIC)
        while pos < len(data):
            try:
                dec = Decoder(data[pos:])
                level = dec.u8()
                page_no = dec.u64()
                payload = dec.var_bytes()
            except DecodeError:
                return
            yield level, page_no, len(payload)
            pos += 1 + 8 + 4 + len(payload)

    def describe(self) -> dict:
        self._fh.flush()
        return {
            "kind": "file",
            "path": str(self.path),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        self._fh.close()


class PagedNodeStore(NodeStore):
    """Bounded-memory node store: LRU page cache over an append-only backing.

    Node ``(level, index)`` lives at offset ``index % page_size`` of page
    ``(level, index // page_size)``.  Pages are plain ``{offset: value}``
    dicts while resident; a bounded :class:`collections.OrderedDict` LRU
    keeps at most ``cache_pages`` of them in memory.  Evicting a dirty page
    encodes it and appends it to the backing; the *page table* (a
    :class:`CowDict`) maps each spilled page to its latest backing ref.

    Invariant: every clean resident page has a table ref (pages are born
    dirty and only become clean by being flushed or loaded), so clean
    evictions are free drops.

    ``copy()`` flushes dirty pages once, then shares the page table
    copy-on-write and the (append-only) backing — O(dirty + resident), not
    O(occupied nodes).
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        backing=None,
    ) -> None:
        if page_size < 1 or page_size & (page_size - 1):
            raise StorageError("page_size must be a power of two >= 1")
        if cache_pages < 1:
            raise StorageError("cache_pages must be >= 1")
        self.page_size = page_size
        self.cache_pages = cache_pages
        self.backing = backing if backing is not None else MemoryPageBacking()
        self._shift = page_size.bit_length() - 1
        self._mask = page_size - 1
        # (level, page_no) -> backing ref for every spilled page
        self._table: CowDict = CowDict()
        # (level, page_no) -> {offset: value}, LRU order (oldest first)
        self._cache: OrderedDict[tuple[int, int], dict[int, int]] = OrderedDict()
        self._dirty: set[tuple[int, int]] = set()

    # -- page plumbing ------------------------------------------------------

    def _resident(self, key: tuple[int, int]) -> dict[int, int] | None:
        page = self._cache.get(key)
        if page is not None:
            self._cache.move_to_end(key)
            _PAGE_HITS.inc()
        return page

    def _load(self, key: tuple[int, int]) -> dict[int, int] | None:
        """Bring a spilled page into the cache; None when never spilled."""
        ref = self._table.get(key)
        if ref is None:
            return None
        _PAGE_MISSES.inc()
        _PAGE_LOADS.inc()
        page = decode_page(self.backing.load(ref))
        self._admit(key, page)
        return page

    def _admit(self, key: tuple[int, int], page: dict[int, int]) -> None:
        self._cache[key] = page
        self._cache.move_to_end(key)
        _RESIDENT_PAGES.inc()
        while len(self._cache) > self.cache_pages:
            old_key, old_page = self._cache.popitem(last=False)
            _PAGE_EVICTIONS.inc()
            _RESIDENT_PAGES.dec()
            if old_key in self._dirty:
                self._dirty.discard(old_key)
                self._spill(old_key, old_page)

    def _spill(self, key: tuple[int, int], page: dict[int, int]) -> None:
        if page:
            self._table[key] = self.backing.store(key[0], key[1], encode_page(page))
        else:
            self._table.discard(key)
        _PAGE_FLUSHES.inc()

    def _page_for_write(self, key: tuple[int, int]) -> dict[int, int]:
        page = self._resident(key)
        if page is None:
            page = self._load(key)
        if page is None:
            page = {}
            self._admit(key, page)
        return page

    # -- NodeStore contract -------------------------------------------------

    def get(self, level: int, index: int) -> int | None:
        key = (level, index >> self._shift)
        page = self._resident(key)
        if page is None:
            page = self._load(key)
            if page is None:
                return None
        return page.get(index & self._mask)

    def set(self, level: int, index: int, value: int) -> bool:
        key = (level, index >> self._shift)
        page = self._page_for_write(key)
        offset = index & self._mask
        was_present = offset in page
        page[offset] = value
        self._dirty.add(key)
        return was_present

    def delete(self, level: int, index: int) -> bool:
        key = (level, index >> self._shift)
        page = self._resident(key)
        if page is None:
            if key not in self._table:
                return False
            page = self._load(key)
        if page.pop(index & self._mask, None) is None:
            return False
        self._dirty.add(key)
        return True

    def leaf_items(self) -> Iterator[tuple[int, int]]:
        shift = self._shift
        seen: set[int] = set()
        for (level, page_no), page in list(self._cache.items()):
            if level != 0:
                continue
            seen.add(page_no)
            for offset, value in page.items():
                yield (page_no << shift) | offset, value
        # Spilled leaf pages are decoded straight from the backing without
        # entering the cache: a full-state scan (snapshot encode, occupied
        # enumeration) must not evict the working set.
        for key in list(self._table.keys()):
            level, page_no = key
            if level != 0 or page_no in seen:
                continue
            _PAGE_LOADS.inc()
            for offset, value in decode_page(self.backing.load(self._table[key])).items():
                yield (page_no << shift) | offset, value

    def prefetch(self, level: int, indices: Iterable[int]) -> None:
        wanted = {index >> self._shift for index in indices}
        # Never prefetch more than the cache holds — with a pathologically
        # tiny cache the extra loads would evict each other for nothing
        # (on-demand loads in get/set keep everything correct regardless).
        budget = self.cache_pages
        for page_no in sorted(wanted):
            if budget <= 0:
                return
            key = (level, page_no)
            if key in self._cache:
                self._cache.move_to_end(key)
            else:
                self._load(key)
            budget -= 1

    def flush(self) -> None:
        for key in sorted(self._dirty):
            self._spill(key, self._cache[key])
        self._dirty.clear()

    def copy(self) -> "PagedNodeStore":
        self.flush()
        clone = PagedNodeStore.__new__(PagedNodeStore)
        clone.page_size = self.page_size
        clone.cache_pages = self.cache_pages
        clone.backing = self.backing
        clone._shift = self._shift
        clone._mask = self._mask
        clone._table = self._table.copy()
        clone._cache = OrderedDict()
        clone._dirty = set()
        return clone

    # -- persistence --------------------------------------------------------

    def table_items(self) -> list[tuple[tuple[int, int], object]]:
        """Snapshot of the page table (call after :meth:`flush`)."""
        return sorted(self._table.items())

    @classmethod
    def from_table(
        cls,
        table: Iterable[tuple[tuple[int, int], object]],
        backing,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> "PagedNodeStore":
        """Rebuild a store around persisted refs; pages load back lazily."""
        store = cls(page_size=page_size, cache_pages=cache_pages, backing=backing)
        for key, ref in table:
            store._table[key] = ref
        return store

    def describe(self) -> dict:
        return {
            "kind": "paged",
            "page_size": self.page_size,
            "cache_pages": self.cache_pages,
            "resident_pages": len(self._cache),
            "dirty_pages": len(self._dirty),
            "spilled_pages": len(self._table),
            "backing": self.backing.describe(),
        }

    def close(self) -> None:
        _RESIDENT_PAGES.dec(len(self._cache))
        self._cache.clear()
        self._dirty.clear()
