"""Read-only store inspection for the CLI explorer.

:func:`inspect_store` opens a store *without* constructing a node: it reads
the log directly and summarizes what a recovery would find — chain height,
tip digest, registered sidechains, certificates — plus the last snapshot's
epoch (a mainchain store's).  Everything here is read-only by construction
(only ``latest_snapshot``/``records``/``describe`` are called), so it is
safe to point at a live node's data directory.  A paged node's MST pages
live in an unnamed scratch file that dies with the process, so there is no
page file to summarize; a ``pages.seg`` an older build left behind is
neither read nor touched.
"""

from __future__ import annotations

from repro import wire
from repro.storage.records import KIND_NAMES, MC_BLOCK, SC_BLOCK, SC_CERT, SC_TX
from repro.storage.store import StateStore


def _record_histogram(records: list[tuple[int, bytes]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for kind, _ in records:
        name = KIND_NAMES.get(kind, f"kind_{kind}")
        counts[name] = counts.get(name, 0) + 1
    return counts


def _inspect_latus(records, info: dict) -> dict:
    # the log holds the chain in order: its last block is the tip
    blocks = [payload for kind, payload in records if kind == SC_BLOCK]
    tip = wire.decode_sidechain_block(blocks[-1]) if blocks else None
    info.update(
        kind="latus",
        height=tip.height if tip else -1,
        tip_hash=tip.hash.hex() if tip else None,
        tip_digest=f"{tip.state_digest:#x}" if tip else None,
        certificates=sum(1 for kind, _ in records if kind == SC_CERT),
        mempool_txs=sum(1 for kind, _ in records if kind == SC_TX),
    )
    return info


def _inspect_mainchain(records, info: dict) -> dict:
    # the tip is the highest logged block, the first seen on a tie (forks
    # stay in the log); the registry is every declaration on its chain
    from repro.mainchain.transaction import SidechainDeclarationTx

    logged = {}
    tip = None
    for kind, payload in records:
        if kind == MC_BLOCK:
            block = wire.decode_block(payload)
            logged[block.hash] = block
            if tip is None or block.height > tip.height:
                tip = block
    declared, cursor = 0, tip
    while cursor is not None:
        declared += sum(isinstance(tx, SidechainDeclarationTx) for tx in cursor.transactions)
        cursor = logged.get(cursor.header.prev_hash)
    info.update(
        kind="mainchain",
        height=tip.header.height if tip else -1,
        tip_hash=tip.hash.hex() if tip else None,
        tip_digest=tip.hash.hex() if tip else None,
        sidechains=declared,
    )
    return info


def inspect_store(store: StateStore) -> dict:
    """Summarize a store's contents without building a node.

    Returns a dict with at least ``kind`` (``"latus"``, ``"mainchain"`` or
    ``"empty"``), ``height``, ``tip_digest``, ``snapshot_epoch``,
    ``snapshot_covers``, ``wal_records`` and the backend's ``describe()``
    output under ``backend``.
    """
    snapshot = store.latest_snapshot()
    records = store.records()
    info: dict = {
        "backend": store.describe(),
        "snapshot_epoch": snapshot[0] if snapshot is not None else None,
        "snapshot_covers": snapshot[2] if snapshot is not None else None,
        "wal_records": len(records),
        "wal_record_kinds": _record_histogram(records),
    }
    record_kinds = {kind for kind, _ in records}
    if record_kinds == {MC_BLOCK}:
        return _inspect_mainchain(records, info)
    if record_kinds and MC_BLOCK not in record_kinds:
        return _inspect_latus(records, info)
    info.update(kind="empty", height=-1, tip_hash=None, tip_digest=None)
    return info


def format_inspection(info: dict) -> str:
    """Human-readable multi-line rendering of :func:`inspect_store` output."""
    lines = [f"store kind: {info['kind']}"]
    backend = info.get("backend", {})
    if backend:
        detail = ", ".join(f"{k}={v}" for k, v in backend.items())
        lines.append(f"backend: {detail}")
    lines.append(f"chain height: {info['height']}")
    if info.get("tip_hash"):
        lines.append(f"tip hash: {info['tip_hash']}")
    if info.get("tip_digest") and info["tip_digest"] != info.get("tip_hash"):
        lines.append(f"tip state digest: {info['tip_digest']}")
    if info.get("sidechains") is not None:
        lines.append(f"registered sidechains: {info['sidechains']}")
    if info.get("certificates") is not None:
        lines.append(f"withdrawal certificates: {info['certificates']}")
    if info["snapshot_epoch"] is None:
        lines.append(f"log records: {info['wal_records']} (no snapshot)")
    else:
        lines.append(f"last snapshot epoch: {info['snapshot_epoch']}")
        lines.append(
            f"log records: {info['wal_records']} (the snapshot covers {info['snapshot_covers']})"
        )
    kinds = info.get("wal_record_kinds") or {}
    if kinds:
        detail = ", ".join(f"{name}={count}" for name, count in sorted(kinds.items()))
        lines.append(f"log record kinds: {detail}")
    return "\n".join(lines)
