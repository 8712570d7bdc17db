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

Which store a node uses is not a setting: a Latus node over a
``FileStore`` pages, every other node keeps the dict store
(``LatusNode._make_node_store``).

Page payloads are canonical :class:`repro.encoding.Encoder` bytes — a
sorted sequence of ``(u32 offset, field_element value)`` pairs — appended
by :class:`FilePageBacking` to an unnamed scratch file in the node's data
directory.  The file is append-only while it is open, so page refs stay
valid for the life of the process, which makes both the copy-on-write
table and the ref-keyed cache safe.  No ref outlives the process: the node
rebuilds its state from its log, so the file vanishes with it.  A
``pages.seg`` an older build left in a data directory is neither read nor
touched.

Every store implements the same five-method contract consumed by
``FixedMerkleTree``: ``get`` / ``set`` / ``delete`` / ``leaf_items`` /
``prefetch`` (plus ``flush``, ``copy`` and ``describe``).  Stores never see
the empty sentinel: the tree deletes a node instead of storing the
all-empty hash, so "absent" always means "empty subtree of that level".
"""

from __future__ import annotations

import os
import tempfile
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

from repro import observability
from repro.core.cow import CowDict
from repro.crypto.fixed_merkle import MAX_DEPTH
from repro.encoding import Decoder, Encoder
from repro.errors import StorageError

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


def _release_backing(decoded: OrderedDict, fh) -> None:
    """Finalizer of a backing: closed or collected, its LRU leaves the gauge
    and its scratch file is closed (which deletes it)."""
    _RESIDENT_PAGES.dec(len(decoded))
    decoded.clear()
    fh.close()


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


class FilePageBacking:
    """Append-only page storage in an unnamed scratch file, plus the one
    decoded-page LRU over it.

    Payloads are appended to a ``tempfile.TemporaryFile`` in ``directory``
    (a node's data directory) and a ref is a payload's ``(offset,
    length)``.  The file has no name: it vanishes when the backing closes
    or the process dies, and the directory never shows it.  No ref outlives
    the process, since a node rebuilds its state from its log.  While open
    the file is only appended to, so a ref is never reused and the page
    behind it never changes: a page decoded once is an immutable value every
    store over this backing may share.  Stores bound the LRU by passing
    ``room``: their ``cache_pages`` minus the dirty pages they own.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        #: ref -> decoded page, least recently used first
        self.decoded: OrderedDict = OrderedDict()
        self._fh = tempfile.TemporaryFile(dir=self.directory)
        self._release = weakref.finalize(self, _release_backing, self.decoded, self._fh)

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

    def store(self, payload: bytes) -> tuple[int, int]:
        """Append one page payload; its ref."""
        self._fh.seek(0, os.SEEK_END)
        offset = self._fh.tell()
        self._fh.write(payload)
        return (offset, len(payload))

    def load(self, ref) -> bytes:
        offset, length = ref
        self._fh.seek(offset)
        return self._fh.read(length)

    def sync(self) -> None:
        """Flush buffered appends and fsync (no caller in ``src/``: the
        pipeline benchmark's tracer wraps it by name)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def describe(self) -> dict:
        self._fh.flush()
        return {
            "kind": "file",
            "directory": str(self.directory),
            "bytes": os.fstat(self._fh.fileno()).st_size,
        }

    def close(self) -> None:
        self._release()


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
        backing: FilePageBacking,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        if page_size < 2 or page_size & (page_size - 1):
            raise StorageError("page_size must be a power of two >= 2 (a tile of k >= 1 levels)")
        if cache_pages < 1:
            raise StorageError("cache_pages must be >= 1")
        self.page_size = page_size
        self.cache_pages = cache_pages
        self.backing = backing
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
        ref = self.backing.store(encode_page(page))
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
