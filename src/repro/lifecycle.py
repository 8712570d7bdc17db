"""Shared node lifecycle: crash / restart / resync, and the node's store.

:class:`LatusNode` and :class:`MainchainNode` expose the same lifecycle
surface — ``crash()``, ``restart()``, ``sync_from(peer)``, ``close()`` —
and count it on the same metrics (``repro_node_crashes_total`` and
friends).  This mixin is also the only code that opens, guards, recovers,
snapshots, resets and closes a node's :class:`~repro.storage.StateStore`.
Each node supplies a handful of hooks:

* ``_drop_inflight()`` — discard state a real crash would lose;
* ``_reset_for_restart()`` — rebuild the empty-chain state;
* ``_restore_snapshot(sections)`` — load the latest snapshot's sections;
* ``_replay(records)`` — apply the WAL records written since it;
* ``_snapshot_sections()`` — ``(epoch, sections)`` of the current chain;
* ``_adopt_peer_chain(peer)`` — one full re-validated adoption attempt;
* ``_chain_length()`` — blocks adopted (the ``sync_from`` return value);
* ``_SYNC_FAILURES`` / ``_SYNC_ERROR`` — what an adoption that refuses
  the peer's chain raises, and what ``sync_from`` raises in its place.

Recovery is one template, :meth:`NodeLifecycle._recover_from_store`: read
the snapshot and the WAL once, restore and replay them with durable writes
suppressed, fold them into one fresh snapshot.  ``restart(data_dir=...)``
is the recover-from-disk entry point, so a kill -9'd node comes back to a
byte-identical chain digest without a full peer resync (only the WAL tail
past the last fsync ever needs a peer).
"""

from __future__ import annotations

import warnings

from repro import observability
from repro.errors import DecodeError, NodeCrashed, StorageError

_REGISTRY = observability.registry()
NODE_CRASHES = _REGISTRY.counter(
    "repro_node_crashes_total",
    "simulated node crashes (in-flight state dropped)",
).labels()
NODE_RESTARTS = _REGISTRY.counter(
    "repro_node_restarts_total",
    "node restarts (from disk when a store is attached, else from genesis)",
).labels()
NODE_RESYNCS = _REGISTRY.counter(
    "repro_node_resyncs_total",
    "successful peer resyncs (sync_from adoptions)",
).labels()


def _open_store(store, data_dir, fsync: str):
    """``store``, or a :class:`~repro.storage.FileStore` over ``data_dir``."""
    if data_dir is None:
        return store
    if store is not None:
        raise StorageError("pass data_dir= or store=, not both")
    from repro.storage import FileStore  # deferred: its codecs import the node packages

    return FileStore(data_dir, fsync=fsync)


class NodeLifecycle:
    """Crash/restart/resync and store ownership shared by both node types."""

    #: Exceptions by which an adoption refuses the peer's chain.
    _SYNC_FAILURES: tuple[type[BaseException], ...] = ()
    #: Raised (with the standard message) when the adoption failed.
    _SYNC_ERROR: type[Exception] = RuntimeError

    def _init_lifecycle(self, store=None, data_dir=None, fsync: str = "block") -> None:
        #: True between :meth:`crash` and :meth:`restart`; chain-mutating
        #: APIs refuse to run while set.
        self.crashed = False
        #: Lifetime restart count (diagnostics; survives restarts).
        self.restarts = 0
        self._store = _open_store(store, data_dir, fsync)
        #: True while the store is being replayed: the node writes nothing.
        self._replaying = False

    # -- hooks ------------------------------------------------------------------

    def _drop_inflight(self) -> None:
        """Discard whatever a real crash would lose (queues, mempools)."""

    def _reset_for_restart(self) -> None:
        raise NotImplementedError

    def _restore_snapshot(self, sections: dict[str, bytes]) -> None:
        raise NotImplementedError

    def _replay(self, records: list[tuple[int, bytes]]) -> None:
        raise NotImplementedError

    def _snapshot_sections(self) -> tuple[int, dict[str, bytes]]:
        raise NotImplementedError

    def _adopt_peer_chain(self, peer) -> None:
        raise NotImplementedError

    def _chain_length(self) -> int:
        raise NotImplementedError

    # -- the store ------------------------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.storage.StateStore` (or None)."""
        return self._store

    @property
    def _journaling(self) -> bool:
        """True when durable writes go to the store (attached, not replaying)."""
        return self._store is not None and not self._replaying

    def _write_snapshot(self) -> None:
        """Fold the WAL into a fresh snapshot of the current chain."""
        if self._journaling:
            self._store.write_snapshot(*self._snapshot_sections())

    def _wipe_store(self) -> None:
        """Drop the store's history before the node writes a different one."""
        if self._store is not None and not self._store.read_only:
            self._store.reset()

    def _recover_from_store(self) -> bool:
        """Replay ``snapshot + WAL``; True when a chain was recovered.

        The store is read once.  Nothing is written while it replays; the
        replayed tail is then folded into one fresh snapshot, so recovery
        is idempotent and the node is immediately durable again.  Any
        failure raises :class:`~repro.errors.StorageError`.
        """
        snapshot = self._store.latest_snapshot()
        records = self._store.records()
        if snapshot is None and not records:
            return False
        self._replaying = True
        try:
            if snapshot is not None:
                self._restore_snapshot(snapshot[1])
            self._replay(records)
        except DecodeError as exc:
            raise StorageError(f"undecodable store record: {exc}") from exc
        finally:
            self._replaying = False
        self._write_snapshot()
        from repro.storage import count_disk_recovery

        count_disk_recovery()
        return True

    def _recover_or_start_empty(self, empty: str = "an empty chain") -> bool:
        """Start from the empty chain and replay the attached store onto it.

        Returns True when a chain was recovered.  The one place the
        recovery-failure policy lives: a store that fails to replay is
        abandoned with a warning naming ``empty``, the node starts over
        from :meth:`_reset_for_restart`, and the store is wiped before the
        node writes a new history to it.
        """
        self._reset_for_restart()
        if self._store is None:
            return False
        try:
            return self._recover_from_store()
        except StorageError as exc:
            warnings.warn(
                f"disk recovery failed ({exc}); starting from {empty}",
                RuntimeWarning,
                stacklevel=3,
            )
            self._reset_for_restart()
            self._wipe_store()
            return False

    def close(self) -> None:
        """Release the attached store, if any."""
        if self._store is not None:
            self._store.close()

    # -- shared surface -----------------------------------------------------------

    def _require_running(self) -> None:
        if self.crashed:
            raise NodeCrashed("node has crashed; call restart() first")

    def crash(self) -> None:
        """Simulate an abrupt process death.

        In-flight state is dropped on the floor, mirroring a real crash
        losing everything not yet durably applied; chain-mutating APIs
        raise :class:`~repro.errors.NodeCrashed` until :meth:`restart`.
        Anything already committed to an attached store survives on disk.
        Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self._drop_inflight()
        NODE_CRASHES.inc()

    def restart(self, data_dir=None, store=None, fsync: str = "block") -> None:
        """Come back up — from disk when a store is available.

        With no store the node rebuilds from genesis, ready for
        :meth:`sync` / :meth:`sync_from` (pure replay, the paper's
        determinism property).  ``restart(data_dir=...)`` opens a
        :class:`~repro.storage.FileStore` over the directory and
        ``restart(store=...)`` attaches any store; either way, a non-empty
        store is replayed back to the exact pre-crash chain (minus any WAL
        tail past the last fsync).  A store that fails to replay (corrupt,
        or from a different chain) is abandoned with a warning and wiped,
        and the node falls back to the empty chain.
        """
        store = _open_store(store, data_dir, fsync)
        self.crashed = False
        self.restarts += 1
        NODE_RESTARTS.inc()
        if store is not None:
            old = self._store
            if old is not None and old is not store:
                old.close()
            self._store = store
        self._recover_or_start_empty()

    def sync_from(self, peer) -> int:
        """Adopt a peer's chain after a restart; returns blocks adopted.

        Every peer block passes full validation, so a malicious peer cannot
        smuggle an invalid history in.  The adoption first wipes the store,
        whose history the adopted chain replaces.  It is a deterministic
        function of the peer's blocks and the local mainchain view, so it
        is attempted once: a refused chain resets the node to the empty
        chain, wipes the partial records and raises ``_SYNC_ERROR``.
        """
        self._require_running()
        self._wipe_store()
        try:
            self._adopt_peer_chain(peer)
        except self._SYNC_FAILURES as exc:
            self._reset_for_restart()
            self._wipe_store()
            raise self._SYNC_ERROR(f"sync_from failed: {exc}") from exc
        NODE_RESYNCS.inc()
        return self._chain_length()
