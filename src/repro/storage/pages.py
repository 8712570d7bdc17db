"""Pluggable node stores for :class:`repro.crypto.fixed_merkle.FixedMerkleTree`.

The Merkle State Tree (paper §5.2, Fig. 9) historically kept every occupied
node in one flat ``dict[(level, index), int]``.  That is perfect up to a few
hundred thousand UTXOs and hopeless at millions: the dict alone costs
hundreds of megabytes and ``copy()`` duplicates all of it per block
snapshot.  This module makes the node storage a swappable policy:

* :class:`DictNodeStore` — the reference store.  A dict-of-dicts keyed by
  level, byte-identical behavior to the historical flat dict, with leaf
  enumeration in O(occupied leaves) instead of O(total nodes).
* :class:`PagedNodeStore` — k-level subtree pages (Certificate
  Transparency's tiles), so a path touches ``ceil((depth + 1) / k)`` pages,
  over an append-only backing whose one decoded-page LRU every ``copy()``
  shares: a snapshot costs O(dirty pages) and starts as warm as its parent.

Page payloads are canonical :class:`repro.encoding.Encoder` bytes — a
sorted sequence of ``(u32 offset, field_element value)`` pairs — so a page
round-trips bit-exactly through memory or disk.  The file backing
(:class:`FilePageBacking`) appends self-describing records
(``u8 band | u64 tile | var_bytes payload``) to a ``pages.seg`` segment
next to the WAL; because the segment is append-only while it is open, page
refs stay valid for the life of the process, which makes both the
copy-on-write table and the ref-keyed cache safe.  No ref outlives the
process, so a writer starts the segment empty.

Every store implements the same five-method contract consumed by
``FixedMerkleTree``: ``get`` / ``set`` / ``delete`` / ``leaf_items`` /
``prefetch`` (plus ``flush``, ``copy`` and ``describe``).  Stores never see
the empty sentinel: the tree deletes a node instead of storing the
all-empty hash, so "absent" always means "empty subtree of that level".
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

from repro import observability
from repro.core.cow import CowDict
from repro.crypto.fixed_merkle import MAX_DEPTH
from repro.encoding import Decoder, Encoder
from repro.errors import DecodeError, StorageError

#: Magic first bytes of a page segment file (subtree-tile records).
PAGE_SEGMENT_MAGIC = b"ZENPAGE2"

#: Name of the page segment inside a node's data directory.
PAGE_SEGMENT_NAME = "pages.seg"

#: Default page size 2**k: a tile of k = 10 levels, 1,023 nodes.
DEFAULT_PAGE_SIZE = 1024

#: Default bound on decoded pages, clean and dirty together.
DEFAULT_CACHE_PAGES = 256

_REGISTRY = observability.registry()
_PAGE_HITS = _REGISTRY.counter(
    "repro_mst_page_hits_total", "MST node lookups served from a decoded page"
).labels()
_PAGE_MISSES = _REGISTRY.counter(
    "repro_mst_page_misses_total", "MST node lookups that required a page load"
).labels()
_PAGE_EVICTIONS = _REGISTRY.counter(
    "repro_mst_page_evictions_total", "clean pages evicted from a backing's page cache"
).labels()
_PAGE_FLUSHES = _REGISTRY.counter(
    "repro_mst_page_flushes_total", "dirty MST pages written to the backing"
).labels()
_PAGE_LOADS = _REGISTRY.counter(
    "repro_mst_page_loads_total", "MST pages decoded from the backing"
).labels()
_RESIDENT_PAGES = _REGISTRY.gauge(
    "repro_mst_resident_pages", "decoded MST pages cached by the live page backings"
).labels()


def _drop_decoded(decoded: OrderedDict) -> None:
    """Finalizer of a backing's LRU: closed or collected, it leaves the gauge."""
    _RESIDENT_PAGES.dec(len(decoded))
    decoded.clear()


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


class _PageBacking:
    """Append-only page storage plus the one decoded-page LRU over it.

    A ref is never reused and the page behind it never changes, so a page
    decoded once is an immutable value every store over this backing may
    share.  Stores bound the LRU by passing ``room``: their ``cache_pages``
    minus the dirty pages they own.
    """

    def __init__(self) -> None:
        #: ref -> decoded page, least recently used first
        self.decoded: OrderedDict = OrderedDict()
        self._release = weakref.finalize(self, _drop_decoded, self.decoded)

    def page(self, ref, room: int) -> dict[int, int]:
        """The read-only decoded page at ``ref``, loaded on a miss."""
        page = self.decoded.get(ref)
        if page is not None:
            self.decoded.move_to_end(ref)
            _PAGE_HITS.inc()
            return page
        _PAGE_MISSES.inc()
        page = self.peek(ref)
        self.keep(ref, page, room)
        return page

    def peek(self, ref) -> dict[int, int]:
        """The decoded page at ``ref`` without admitting it (full scans)."""
        page = self.decoded.get(ref)
        if page is None:
            _PAGE_LOADS.inc()
            page = decode_page(self.load(ref))
        return page

    def keep(self, ref, page: dict[int, int], room: int) -> None:
        """Admit a page that is clean from now on, then trim to ``room``."""
        self.decoded[ref] = page
        _RESIDENT_PAGES.inc()
        self.trim(room)

    def trim(self, room: int) -> None:
        while len(self.decoded) > max(room, 0):
            self.decoded.popitem(last=False)
            _PAGE_EVICTIONS.inc()
            _RESIDENT_PAGES.dec()

    def close(self) -> None:
        self._release()


class MemoryPageBacking(_PageBacking):
    """Append-only page backing in process memory (tests, MemoryStore runs)."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: list[bytes] = []

    def store(self, band: int, tile: int, payload: bytes):
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


class FilePageBacking(_PageBacking):
    """Append-only ``pages.seg`` segment next to the WAL.

    Records are self-describing (``u8 band | u64 tile | var_bytes
    payload``), so the segment can be inspected offline; refs are the
    record's ``(offset, length)``.  While open the file is only appended
    to: superseded page versions become garbage (reported by the CLI
    explorer), and in exchange every ref handed out — shared by tree
    snapshots, cached — stays valid without reference counts.  A writer
    opens the segment empty (the magic only): the node's state is rebuilt
    from its log, so no ref outlives the process and the garbage does not
    outlive a restart.
    """

    def __init__(self, path: str | os.PathLike, read_only: bool = False) -> None:
        super().__init__()
        self.path = Path(path)
        self.read_only = read_only
        if self.path.exists():
            with open(self.path, "rb") as fh:
                magic = fh.read(len(PAGE_SEGMENT_MAGIC))
            if magic != PAGE_SEGMENT_MAGIC:
                raise StorageError(
                    f"{self.path} is not a {PAGE_SEGMENT_MAGIC.decode()} page "
                    f"segment (starts with {magic!r})"
                )
        elif read_only:
            raise StorageError(f"page segment {self.path} does not exist")
        if read_only:
            self._fh = open(self.path, "rb")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w+b")
            self._fh.write(PAGE_SEGMENT_MAGIC)
            self._fh.flush()

    def store(self, band: int, tile: int, payload: bytes):
        if self.read_only:
            raise StorageError("page segment opened read-only")
        record = Encoder().u8(band).u64(tile).var_bytes(payload).done()
        self._fh.seek(0, os.SEEK_END)
        offset = self._fh.tell()
        self._fh.write(record)
        return (offset, len(record))

    def load(self, ref) -> bytes:
        offset, length = ref
        self._fh.seek(offset)
        record = self._fh.read(length)
        dec = Decoder(record)
        dec.u8()
        dec.u64()
        payload = dec.var_bytes()
        dec.done()
        return payload

    def sync(self) -> None:
        """Flush buffered appends and fsync."""
        if not self.read_only:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def scan(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(band, tile, payload_len)`` for every record on disk.

        Offline inspection helper; tolerates a torn tail (stops at it).
        """
        self._fh.flush()
        with open(self.path, "rb") as fh:
            data = fh.read()
        pos = len(PAGE_SEGMENT_MAGIC)
        while pos < len(data):
            try:
                dec = Decoder(data[pos:])
                band = dec.u8()
                tile = dec.u64()
                payload = dec.var_bytes()
            except DecodeError:
                return
            yield band, tile, len(payload)
            pos += 1 + 8 + 4 + len(payload)

    def describe(self) -> dict:
        self._fh.flush()
        return {
            "kind": "file",
            "path": str(self.path),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        super().close()
        self._fh.close()


class PagedNodeStore(NodeStore):
    """Bounded-memory node store: subtree tiles over an append-only backing.

    With ``page_size = 2**k``, band ``b`` holds levels ``b*k .. b*k + k - 1``
    and its tile ``t`` is the k-level subtree under node ``t`` of level
    ``b*k + k - 1``, in heap order: with ``s = k - 1 - level % k``, node
    ``(level, index)`` is tile ``(level // k, index >> s)``, offset
    ``2**s + index % 2**s`` (tile root at 1, leaves from ``2**(k-1)``).

    The *page table* (a :class:`CowDict`) maps each flushed tile to its
    latest backing ref.  Clean pages are read from the backing's shared
    decoded-page LRU and never mutated; the first write to a tile copies it
    into this store's dirty pages.  ``cache_pages`` bounds this store's
    dirty pages plus the backing's clean ones: over the bound, the oldest
    dirty page is written back (turning clean) and the clean LRU trimmed.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        backing=None,
    ) -> None:
        if page_size < 2 or page_size & (page_size - 1):
            raise StorageError("page_size must be a power of two >= 2 (a tile of k >= 1 levels)")
        if cache_pages < 1:
            raise StorageError("cache_pages must be >= 1")
        self.page_size = page_size
        self.cache_pages = cache_pages
        self.backing = backing if backing is not None else MemoryPageBacking()
        k = page_size.bit_length() - 1
        #: level -> (band, s)
        self._tiles = tuple((level // k, k - 1 - level % k) for level in range(MAX_DEPTH + 1))
        # (band, tile) -> backing ref for every flushed page
        self._table: CowDict = CowDict()
        # (band, tile) -> {offset: value} this store owns, oldest first
        self._dirty: dict[tuple[int, int], dict[int, int]] = {}

    # -- page plumbing ------------------------------------------------------

    def _locate(self, level: int, index: int) -> tuple[tuple[int, int], int]:
        band, s = self._tiles[level]
        return (band, index >> s), (1 << s) | (index & ((1 << s) - 1))

    def _read(self, key: tuple[int, int]) -> dict[int, int] | None:
        page = self._dirty.get(key)
        if page is not None:
            _PAGE_HITS.inc()
            return page
        ref = self._table.get(key)
        if ref is None:
            return None
        if len(self._dirty) >= self.cache_pages and ref not in self.backing.decoded:
            self._spill(next(iter(self._dirty)))  # dirty pages must not starve the clean ones
        return self.backing.page(ref, self.cache_pages - len(self._dirty))

    def _writable(self, key: tuple[int, int]) -> dict[int, int]:
        page = self._dirty.get(key)
        if page is None:
            if len(self._dirty) >= self.cache_pages:
                self._spill(next(iter(self._dirty)))
            ref = self._table.get(key)
            room = self.cache_pages - len(self._dirty)
            page = {} if ref is None else dict(self.backing.page(ref, room))
            self._dirty[key] = page
            self.backing.trim(room - 1)
        return page

    def _spill(self, key: tuple[int, int]) -> None:
        page = self._dirty.pop(key)
        _PAGE_FLUSHES.inc()
        if not page:
            self._table.discard(key)
            return
        ref = self.backing.store(key[0], key[1], encode_page(page))
        self._table[key] = ref
        self.backing.keep(ref, page, self.cache_pages - len(self._dirty))

    # -- NodeStore contract -------------------------------------------------

    def get(self, level: int, index: int) -> int | None:
        key, offset = self._locate(level, index)
        page = self._read(key)
        return None if page is None else page.get(offset)

    def set(self, level: int, index: int, value: int) -> bool:
        key, offset = self._locate(level, index)
        page = self._writable(key)
        was_present = offset in page
        page[offset] = value
        return was_present

    def delete(self, level: int, index: int) -> bool:
        key, offset = self._locate(level, index)
        page = self._read(key)
        if page is None or offset not in page:
            return False
        del self._writable(key)[offset]
        return True

    def leaf_items(self) -> Iterator[tuple[int, int]]:
        s = self._tiles[0][1]
        first_leaf = 1 << s
        dirty = {tile: page for (band, tile), page in self._dirty.items() if band == 0}
        flushed = {tile: ref for (band, tile), ref in self._table.items() if band == 0}
        for tile in sorted(dirty.keys() | flushed.keys()):
            # flushed tiles are peeked, not admitted: a full-state scan
            # (snapshot encode, leaf enumeration) must not evict the working set
            page = dirty[tile] if tile in dirty else self.backing.peek(flushed[tile])
            for offset, value in page.items():
                if offset >= first_leaf:
                    yield (tile << s) | (offset - first_leaf), value

    def prefetch(self, level: int, indices: Iterable[int]) -> None:
        band, s = self._tiles[level]
        # Never prefetch more than the cache holds: with a tiny cache the
        # extra loads would evict each other (get/set load on demand anyway).
        room = max(self.cache_pages - len(self._dirty), 0)
        for tile in sorted({index >> s for index in indices})[:room]:
            ref = None if (band, tile) in self._dirty else self._table.get((band, tile))
            if ref is not None:
                self.backing.page(ref, room)

    def flush(self) -> None:
        for key in sorted(self._dirty):
            self._spill(key)

    def copy(self) -> "PagedNodeStore":
        self.flush()
        clone = PagedNodeStore.__new__(PagedNodeStore)
        clone.__dict__.update(self.__dict__)
        clone._table = self._table.copy()
        clone._dirty = {}
        return clone

    def describe(self) -> dict:
        clean, dirty = len(self.backing.decoded), len(self._dirty)
        return {
            "kind": "paged",
            "page_size": self.page_size,
            "cache_pages": self.cache_pages,
            "resident_pages": clean + dirty,
            "clean_pages": clean,
            "dirty_pages": dirty,
            "spilled_pages": len(self._table),
            "backing": self.backing.describe(),
        }
