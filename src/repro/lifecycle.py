"""Shared node lifecycle: crash / restart / resync, and the node's store.

:class:`LatusNode` and :class:`MainchainNode` expose the same lifecycle
surface — ``crash()``, ``restart()``, ``sync_from(peer)``, ``close()`` —
and count it on the same metrics (``repro_node_crashes_total`` and
friends).  This mixin is also the only code that opens, guards, recovers,
rewrites, resets and closes a node's :class:`~repro.storage.StateStore`.
Each node supplies a handful of hooks:

* ``_drop_inflight()`` — discard state a real crash would lose;
* ``_reset_for_restart()`` — rebuild the empty-chain state;
* ``_restore(sections, records)`` — rebuild the chain from the log
  records, given the latest snapshot's sections (or None);
* ``_history_records()`` — the log records of the chain the node holds,
  which :meth:`NodeLifecycle._rewrite_store` writes after a reorg or an
  adoption replaced the history;
* ``_adopt_peer_chain(peer)`` — one full re-validated adoption attempt;
* ``_chain_length()`` — blocks adopted (the ``sync_from`` return value);
* ``_SYNC_FAILURES`` / ``_SYNC_ERROR`` — what an adoption that refuses
  the peer's chain raises, and what ``sync_from`` raises in its place.

Recovery is one template, :meth:`NodeLifecycle._recover_from_store`: read
the snapshot and the log once and rebuild the chain from them, with durable
writes suppressed.  A Latus node recovers from its log alone; a mainchain
node starts from its snapshot's state.  ``restart(data_dir=...)`` is the
recover-from-disk entry point, so a kill -9'd node comes back to a
byte-identical chain digest without a full peer resync (only the log tail
past the last fsync ever needs a peer).  Recovery fails closed: a store
that does not replay raises :class:`~repro.errors.StorageError` and is left
as it was found.  The log only grows; the one place a node removes its
history is :meth:`NodeLifecycle._wipe_store`, before it writes a different
one.
"""

from __future__ import annotations

from repro import observability
from repro.errors import NodeCrashed, StorageError, ZendooError

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


def _open_store(store, data_dir):
    """``store``, or a :class:`~repro.storage.FileStore` over ``data_dir``."""
    if data_dir is None:
        return store
    if store is not None:
        raise StorageError("pass data_dir= or store=, not both")
    from repro.storage import FileStore  # deferred: its codecs import the node packages

    return FileStore(data_dir)


class NodeLifecycle:
    """Crash/restart/resync and store ownership shared by both node types."""

    #: Exceptions by which an adoption refuses the peer's chain.
    _SYNC_FAILURES: tuple[type[BaseException], ...] = ()
    #: Raised (with the standard message) when the adoption failed.
    _SYNC_ERROR: type[Exception] = RuntimeError

    def _init_lifecycle(self, store=None, data_dir=None) -> None:
        #: True between :meth:`crash` and :meth:`restart`; chain-mutating
        #: APIs refuse to run while set.
        self.crashed = False
        #: Lifetime restart count (diagnostics; survives restarts).
        self.restarts = 0
        self._store = _open_store(store, data_dir)
        #: True while the store is being replayed: the node writes nothing.
        self._replaying = False

    # -- hooks ------------------------------------------------------------------

    def _drop_inflight(self) -> None:
        """Discard whatever a real crash would lose (queues, mempools)."""

    def _reset_for_restart(self) -> None:
        raise NotImplementedError

    def _restore(
        self, sections: dict[str, bytes] | None, records: list[tuple[int, bytes]]
    ) -> None:
        raise NotImplementedError

    def _history_records(self) -> list[tuple[int, bytes]]:
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

    def _wipe_store(self) -> None:
        """Drop the store's history before the node writes a different one."""
        if self._store is not None and not self._store.read_only:
            self._store.reset()

    def _rewrite_store(self) -> None:
        """Replace the store's history with the log of the chain the node
        now holds."""
        if self._journaling:
            self._wipe_store()
            for kind, payload in self._history_records():
                self._store.stage(kind, payload)
            self._store.commit()

    def _recover_from_store(self) -> None:
        """Recover ``snapshot + log``.

        The store is read once, and the node rebuilds its chain from it;
        nothing is written while the log replays.  Any failure raises
        :class:`~repro.errors.StorageError`.
        """
        snapshot = self._store.latest_snapshot()
        records = self._store.records()
        if snapshot is None and not records:
            return
        self._replaying = True
        try:
            sections = None
            if snapshot is not None:
                _, sections, covered = snapshot
                if covered > len(records):
                    raise StorageError(
                        f"snapshot covers {covered} log records, the log holds {len(records)}"
                    )
            self._restore(sections, records)
        except StorageError:
            raise
        except ZendooError as exc:
            # a record that does not decode, or decodes but does not replay
            raise StorageError(f"store does not replay: {exc}") from exc
        finally:
            self._replaying = False
        from repro.storage import count_disk_recovery

        count_disk_recovery()

    def _recover(self) -> None:
        """Start from the empty chain and replay the attached store onto it.

        A store that fails to replay leaves the node on the empty chain and
        the store as found, and the :class:`~repro.errors.StorageError`
        propagates: the caller decides, and ``sync_from(peer)`` (which wipes
        the store) is the way back from a peer.
        """
        self._reset_for_restart()
        if self._store is None:
            return
        try:
            self._recover_from_store()
        except StorageError:
            self._reset_for_restart()
            raise

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

    def restart(self, data_dir=None, store=None) -> None:
        """Come back up — from disk when a store is available.

        With no store the node rebuilds from genesis, ready for
        :meth:`sync` / :meth:`sync_from` (pure replay, the paper's
        determinism property).  ``restart(data_dir=...)`` opens a
        :class:`~repro.storage.FileStore` over the directory and
        ``restart(store=...)`` attaches any store; either way, a non-empty
        store is replayed back to the exact pre-crash chain (minus any log
        tail past the last fsync).  A store that fails to replay (corrupt,
        or from a different chain) raises
        :class:`~repro.errors.StorageError`; the node is left running on
        the empty chain, ready for :meth:`sync_from`, and the store as found.
        """
        store = _open_store(store, data_dir)
        self.crashed = False
        self.restarts += 1
        NODE_RESTARTS.inc()
        if store is not None:
            old = self._store
            if old is not None and old is not store:
                old.close()
            self._store = store
        self._recover()

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
