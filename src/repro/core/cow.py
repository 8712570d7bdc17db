"""Copy-on-write containers for per-block state snapshots.

The mainchain keeps one validated :class:`~repro.mainchain.chain.MainchainState`
per block within its reorg horizon, the parent's state copied with the block
connected.  With thousands of sidechains and millions of UTXOs / nullifiers,
an eager ``dict(...)`` / ``set(...)`` copy makes every block pay for the
*whole* state even though a block touches a handful of entries.

:class:`CowDict` and :class:`CowSet` replace those eager copies with
structural sharing:

* Each container owns a small mutable **top layer** (plain dict of adds plus
  a tombstone set for deletions) stacked over a tuple of immutable **sealed
  layers** shared with every snapshot taken so far.
* ``copy()`` seals the top layer and hands the clone the same sealed stack —
  O(size of the top layer), independent of the total element count.
* Lookups walk top-down through the layers; to keep that walk short, sealing
  compacts: when the stack holds more than :data:`MAX_LAYERS` delta layers
  they are merged into one (cost proportional to the *deltas*, not the
  base), and when the merged delta outgrows half the base it is folded into
  a new base (geometrically amortized, so total compaction work stays linear
  in the number of mutations ever made).

The containers deliberately implement only the mapping/set surface the
state machine uses; ``len`` is maintained incrementally so snapshots never
pay a full scan.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

#: Maximum number of sealed delta layers before a seal triggers compaction.
MAX_LAYERS: int = 16

_TOMBSTONE = object()


class _Layer:
    """One immutable sealed layer: a plain dict where deleted keys map to
    the :data:`_TOMBSTONE` sentinel.  Never mutated after sealing."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict) -> None:
        self.entries = entries


class CowDict:
    """A dict with O(delta) snapshots via layered structural sharing."""

    __slots__ = ("_base", "_deltas", "_top", "_len")

    def __init__(self, items: dict | None = None) -> None:
        #: Largest sealed layer; contains no tombstones.
        self._base: dict = dict(items) if items else {}
        #: Sealed delta layers, oldest first (shared across snapshots).
        self._deltas: tuple[_Layer, ...] = ()
        #: The only mutable layer; owned exclusively by this instance.
        self._top: dict = {}
        self._len = len(self._base)

    # -- mapping surface --------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __contains__(self, key: Any) -> bool:
        return self._lookup(key) is not _TOMBSTONE

    def __getitem__(self, key: Any) -> Any:
        value = self._lookup(key)
        if value is _TOMBSTONE:
            raise KeyError(key)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._lookup(key)
        return default if value is _TOMBSTONE else value

    def _lookup(self, key: Any) -> Any:
        """The effective value for ``key``, or the tombstone sentinel."""
        value = self._top.get(key, _TOMBSTONE)
        if value is not _TOMBSTONE or key in self._top:
            return value
        for layer in reversed(self._deltas):
            if key in layer.entries:
                return layer.entries[key]
        return self._base.get(key, _TOMBSTONE)

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._lookup(key) is _TOMBSTONE:
            self._len += 1
        self._top[key] = value

    def pop(self, key: Any, *default: Any) -> Any:
        value = self._lookup(key)
        if value is _TOMBSTONE:
            if default:
                return default[0]
            raise KeyError(key)
        self._top[key] = _TOMBSTONE
        self._len -= 1
        return value

    def __delitem__(self, key: Any) -> None:
        self.pop(key)

    def discard(self, key: Any) -> None:
        """Remove ``key`` when present (no-op otherwise)."""
        if self._lookup(key) is not _TOMBSTONE:
            self._top[key] = _TOMBSTONE
            self._len -= 1

    def setdefault(self, key: Any, default: Any = None) -> Any:
        value = self._lookup(key)
        if value is not _TOMBSTONE:
            return value
        self._top[key] = default
        self._len += 1
        return default

    def clear(self) -> None:
        self._base = {}
        self._deltas = ()
        self._top = {}
        self._len = 0

    # -- iteration ---------------------------------------------------------------
    #
    # Iteration order is layer order (base first, then deltas, then the top
    # layer), with later layers winning on duplicates.  It is deterministic
    # but NOT global insertion order; state-machine callers must not depend
    # on ordering across snapshots.

    def _merged(self) -> dict:
        """One flat dict of the effective content (tombstones resolved)."""
        merged = dict(self._base)
        for layer in self._deltas:
            self._apply_layer(merged, layer.entries)
        self._apply_layer(merged, self._top)
        return merged

    @staticmethod
    def _apply_layer(merged: dict, entries: dict) -> None:
        for key, value in entries.items():
            if value is _TOMBSTONE:
                merged.pop(key, None)
            else:
                merged[key] = value

    def __iter__(self) -> Iterator[Any]:
        return iter(self._merged())

    def keys(self) -> Iterable[Any]:
        return self._merged().keys()

    def values(self) -> Iterable[Any]:
        return self._merged().values()

    def items(self) -> Iterable[tuple[Any, Any]]:
        return self._merged().items()

    # -- snapshots ---------------------------------------------------------------

    def _seal(self) -> None:
        """Freeze the top layer into the shared delta stack, compacting."""
        if self._top:
            self._deltas = (*self._deltas, _Layer(self._top))
            self._top = {}
        if len(self._deltas) > MAX_LAYERS:
            merged_delta: dict = {}
            for layer in self._deltas:
                merged_delta.update(layer.entries)
            # fold into the base once the combined deltas rival it in size;
            # geometric growth keeps the amortized cost per mutation O(1)
            if len(merged_delta) * 2 >= len(self._base):
                base = dict(self._base)
                self._apply_layer(base, merged_delta)
                self._base = base
                self._deltas = ()
            else:
                self._deltas = (_Layer(merged_delta),)

    def copy(self) -> "CowDict":
        """O(top layer) snapshot sharing all sealed layers with ``self``."""
        self._seal()
        clone = CowDict()
        clone._base = self._base
        clone._deltas = self._deltas
        clone._len = self._len
        return clone

    @property
    def layer_count(self) -> int:
        """Sealed delta layers currently stacked (introspection/tests)."""
        return len(self._deltas)


class CowSet:
    """A set with O(delta) snapshots, backed by :class:`CowDict`."""

    __slots__ = ("_map",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._map = CowDict(dict.fromkeys(items, True))

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

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
        """O(top layer) snapshot sharing sealed layers with ``self``."""
        clone = CowSet()
        clone._map = self._map.copy()
        return clone

    @property
    def layer_count(self) -> int:
        """Sealed delta layers currently stacked (introspection/tests)."""
        return self._map.layer_count
