"""Copy-on-write containers for per-block state snapshots.

The mainchain keeps one validated :class:`~repro.mainchain.chain.MainchainState`
per block within its reorg horizon, the parent's state copied with the block
connected; a block touches a handful of entries, so no copy may pay for the
whole state.  :class:`CowDict` and :class:`CowSet` keep every copy of a map
as one *version* of a family over a single flat dict (shallow binding, or a
chain's per-block undo data):

* The **root** version holds the dict: a read of it is one probe.
* Every other version holds an **undo record** ``{key: the value it sees}``
  against its neighbour towards the root; a read walks those records (at
  most ``REORG_HORIZON + 1`` for a mainchain's kept states).
* ``copy()`` is O(1): the handles share the version.  The first to write
  *splits*, taking the dict in a new root; each of its writes adds at most
  one entry to the record left behind, which it reaches by a weak reference,
  so a version nobody keeps (a dropped block state) frees its record.
* Writing to, or iterating, an older version *re-roots* the family: the
  records on its path are reversed and no version's content changes.  A
  re-rooted version may have other readers, so it splits before a write.

Iteration reads the root dict itself: do not write to the family meanwhile.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator

_ABSENT = object()


class _Version:
    """One version of a :class:`CowDict` family: the root holds ``data``
    (and ``back``, a weak reference to the record it split from), any other
    version its ``undo`` record against ``next`` and its ``size``."""

    __slots__ = ("data", "undo", "next", "size", "back", "__weakref__")

    def __init__(self, data: dict) -> None:
        self.data, self.undo, self.next, self.size, self.back = data, None, None, 0, None


def _reroot(version: _Version) -> None:
    """Make ``version`` the root by reversing the undo records on its path."""
    path = []
    while version.data is None:
        path.append(version)
        version = version.next
    root, data = version, version.data
    for version in reversed(path):
        redo, size = {}, len(data)
        for key, value in version.undo.items():
            redo[key] = data.get(key, _ABSENT)
            if value is _ABSENT:
                data.pop(key, None)
            else:
                data[key] = value
        root.data, root.undo, root.next, root.size = None, redo, version, size
        version.data, version.undo, version.next = data, None, None
        root = version


class CowDict:
    """A dict with O(1) snapshots: versions over one flat dict."""

    __slots__ = ("_version", "_own")

    def __init__(self, items: dict | None = None) -> None:
        self._version = _Version(dict(items) if items else {})
        #: True while no other handle and no copy shares ``_version``.
        self._own = True

    # -- mapping surface --------------------------------------------------------

    def __len__(self) -> int:
        version = self._version
        return version.size if version.data is None else len(version.data)

    def __contains__(self, key: Any) -> bool:
        data = self._version.data
        return key in data if data is not None else self._find(key) is not _ABSENT

    def __getitem__(self, key: Any) -> Any:
        data = self._version.data
        if data is not None:
            return data[key]
        value = self._find(key)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        data = self._version.data
        if data is not None:
            return data.get(key, default)
        value = self._find(key)
        return default if value is _ABSENT else value

    def _find(self, key: Any) -> Any:
        """The value an older version sees: the first undo record on its
        path that names ``key``, else the root's; :data:`_ABSENT` if none."""
        version = self._version
        while version.data is None:
            if key in version.undo:
                return version.undo[key]
            version = version.next
        return version.data.get(key, _ABSENT)

    def _writable(self) -> dict | None:
        """Make this handle's version a root it alone writes; returns the
        undo record its writes must fill (None when no version needs one)."""
        version = self._version
        if version.data is None:
            _reroot(version)
        if not self._own:
            root = _Version(version.data)
            root.back = weakref.ref(version)
            version.size, version.data, version.undo = len(version.data), None, {}
            version.next, version.back = root, None
            self._version, self._own = root, True
            return version.undo
        record = version.back and version.back()
        return None if record is None else record.undo

    def __setitem__(self, key: Any, value: Any) -> None:
        undo = self._writable()
        data = self._version.data
        if undo is not None and key not in undo:
            undo[key] = data.get(key, _ABSENT)
        data[key] = value

    def pop(self, key: Any, *default: Any) -> Any:
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            if default:
                return default[0]
            raise KeyError(key)
        undo = self._writable()
        if undo is not None and key not in undo:
            undo[key] = value
        del self._version.data[key]
        return value

    def __delitem__(self, key: Any) -> None:
        self.pop(key)

    def discard(self, key: Any) -> None:
        """Remove ``key`` when present (no-op otherwise)."""
        self.pop(key, None)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        value = self.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        undo = self._writable()
        if undo is not None and key not in undo:
            undo[key] = _ABSENT
        self._version.data[key] = default
        return default

    def clear(self) -> None:
        """Empty this handle: a new family, every copy keeps its content."""
        self._version, self._own = _Version({}), True

    # -- iteration ----------------------------------------------------------------

    def _root_data(self) -> dict:
        version = self._version
        if version.data is None:
            _reroot(version)
        return version.data

    def __iter__(self) -> Iterator[Any]:
        return iter(self._root_data())

    def keys(self) -> Iterable[Any]:
        return self._root_data().keys()

    def values(self) -> Iterable[Any]:
        return self._root_data().values()

    def items(self) -> Iterable[tuple[Any, Any]]:
        return self._root_data().items()

    # -- snapshots ---------------------------------------------------------------

    def copy(self) -> "CowDict":
        """O(1) snapshot: both handles share the version until one writes."""
        clone = CowDict.__new__(CowDict)
        clone._version = self._version
        clone._own = self._own = False
        return clone


class CowSet:
    """A set with O(1) snapshots, backed by :class:`CowDict`."""

    __slots__ = ("_map",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._map = CowDict(dict.fromkeys(items, True))

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, item: Any) -> bool:
        return item in self._map

    def __iter__(self) -> Iterator[Any]:
        return iter(self._map)

    def add(self, item: Any) -> None:
        self._map[item] = True

    def discard(self, item: Any) -> None:
        self._map.discard(item)

    def remove(self, item: Any) -> None:
        self._map.pop(item)

    def clear(self) -> None:
        self._map.clear()

    def copy(self) -> "CowSet":
        """O(1) snapshot (:meth:`CowDict.copy`)."""
        clone = CowSet.__new__(CowSet)
        clone._map = self._map.copy()
        return clone
