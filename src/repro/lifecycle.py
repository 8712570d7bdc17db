"""Shared node lifecycle: crash / restart / resync, with disk recovery.

:class:`LatusNode` and :class:`MainchainNode` expose the same lifecycle
surface — ``crash()``, ``restart()``, ``sync_from(peer)`` — and count it on
the same metrics (``repro_node_crashes_total`` and friends).  This module
holds that shared machinery as a mixin; each node supplies a handful of
hooks:

* ``_drop_inflight()`` — discard state a real crash would lose;
* ``_reset_for_restart()`` — rebuild the empty-chain state;
* ``_recover_from_store()`` — replay snapshot + WAL from :attr:`_store`,
  returning True when a chain was recovered;
* ``_adopt_peer_chain(peer)`` — one full re-validated adoption attempt;
* ``_chain_length()`` — blocks adopted (the ``sync_from`` return value);
* ``_SYNC_RETRYABLE`` / ``_SYNC_ERROR`` — what to retry and what to raise
  when retries are exhausted.

``restart(data_dir=...)`` is the recover-from-disk entry point: it opens a
:class:`~repro.storage.FileStore` over the directory and replays it, so a
kill -9'd node comes back to a byte-identical chain digest without a full
peer resync (only the WAL tail past the last fsync ever needs a peer).
"""

from __future__ import annotations

import warnings

from repro import observability
from repro.errors import NodeCrashed, StorageError

_REGISTRY = observability.registry()
NODE_CRASHES = _REGISTRY.counter(
    "repro_node_crashes_total",
    "simulated node crashes (in-flight state dropped)",
).labels()
NODE_RESTARTS = _REGISTRY.counter(
    "repro_node_restarts_total",
    "node restarts (from disk when a store is attached, else from genesis)",
).labels()
NODE_SYNC_RETRIES = _REGISTRY.counter(
    "repro_node_sync_retries_total",
    "sync_from attempts retried after a recoverable failure",
).labels()
NODE_RESYNCS = _REGISTRY.counter(
    "repro_node_resyncs_total",
    "successful peer resyncs (sync_from adoptions)",
).labels()


class NodeLifecycle:
    """Crash/restart/resync mixin shared by Latus and mainchain nodes."""

    #: Exceptions ``sync_from`` treats as recoverable and retries.
    _SYNC_RETRYABLE: tuple[type[BaseException], ...] = ()
    #: Raised (with the standard message) when every retry failed.
    _SYNC_ERROR: type[Exception] = RuntimeError

    def _init_lifecycle(self, store=None) -> None:
        #: True between :meth:`crash` and :meth:`restart`; chain-mutating
        #: APIs refuse to run while set.
        self.crashed = False
        #: Lifetime restart count (diagnostics; survives restarts).
        self.restarts = 0
        #: Simulated seconds spent backing off inside :meth:`sync_from`.
        self.backoff_seconds = 0.0
        self._store = store

    # -- hooks ------------------------------------------------------------------

    def _drop_inflight(self) -> None:
        """Discard whatever a real crash would lose (queues, mempools)."""

    def _reset_for_restart(self) -> None:
        raise NotImplementedError

    def _recover_from_store(self) -> bool:
        """Replay :attr:`_store`; True when a chain was recovered."""
        return False

    def _adopt_peer_chain(self, peer) -> None:
        raise NotImplementedError

    def _chain_length(self) -> int:
        raise NotImplementedError

    # -- shared surface -----------------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.storage.StateStore` (or None)."""
        return self._store

    def _require_running(self) -> None:
        if self.crashed:
            raise NodeCrashed("node has crashed; call restart() first")

    def _recover_or_start_empty(self, empty: str = "an empty chain") -> bool:
        """Replay a non-empty attached store; True when a chain was recovered.

        The one place the recovery-failure policy lives: a store that fails
        to replay is abandoned with a warning naming ``empty`` and the node
        starts over from :meth:`_reset_for_restart`.
        """
        if self._store is None:
            return False
        try:
            return not self._store.is_empty() and self._recover_from_store()
        except StorageError as exc:
            warnings.warn(
                f"disk recovery failed ({exc}); starting from {empty}",
                RuntimeWarning,
                stacklevel=3,
            )
            self._reset_for_restart()
            return False

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
        or from a different chain) is abandoned with a warning and the node
        falls back to the empty chain.
        """
        if data_dir is not None and store is not None:
            raise StorageError("pass data_dir= or store=, not both")
        self.crashed = False
        self.restarts += 1
        NODE_RESTARTS.inc()
        if data_dir is not None:
            from repro.storage import FileStore

            store = FileStore(data_dir, fsync=fsync)
        if store is not None:
            old = self._store
            if old is not None and old is not store:
                old.close()
            self._store = store
        self._reset_for_restart()
        self._recover_or_start_empty()

    def sync_from(self, peer, max_retries: int = 5, base_backoff: float = 0.05) -> int:
        """Adopt a peer's chain after a restart; returns blocks adopted.

        Every peer block passes full validation, so a malicious peer cannot
        smuggle an invalid history in.  Recoverable failures are retried up
        to ``max_retries`` times with exponential backoff (simulated
        seconds accumulated on :attr:`backoff_seconds` and counted on
        ``repro_node_sync_retries_total``).
        """
        self._require_running()
        delay = base_backoff
        last_error: Exception | None = None
        for attempt in range(max_retries + 1):
            if attempt:
                NODE_SYNC_RETRIES.inc()
                self.backoff_seconds += delay
                delay *= 2
            try:
                self._adopt_peer_chain(peer)
            except self._SYNC_RETRYABLE as exc:
                last_error = exc
                continue
            NODE_RESYNCS.inc()
            return self._chain_length()
        self._reset_for_restart()
        if self._store is not None and not self._store.read_only:
            # a failed adoption attempt may have left partial records behind
            self._store.reset()
        raise self._SYNC_ERROR(
            f"sync_from failed after {max_retries} retries: {last_error}"
        )
