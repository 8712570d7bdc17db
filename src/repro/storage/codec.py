"""Store codecs: node state ↔ canonical bytes.

Everything written to disk goes through :class:`~repro.encoding.Encoder` /
:class:`~repro.encoding.Decoder` and reuses the :mod:`repro.wire` readers —
the wire codec is the single serialization authority for both the network
and the store (no pickle anywhere).  This module defines the ``SC_CERT``
payload, the mainchain snapshot's sections and their strict inverses.

A Latus node writes no snapshot.  Its history (blocks, wallet transactions,
certificate anchors) is in the store's log, one record each, and each
anchor record carries its certified epoch's state: recovery re-derives the
chain from the log alone.

A mainchain snapshot (assembled by :class:`~repro.mainchain.node.MainchainNode`)::

    mc/state         UTXO set, safeguard, CCTP registry (entries, adopted
                     certificates, nullifiers), pending payouts, at the
                     active block REORG_HORIZON below the tip (or genesis)
    mc/tip           the hash of the block the state belongs to
"""

from __future__ import annotations

from itertools import groupby

from repro import wire
from repro.encoding import Decoder, Encoder
from repro.errors import DecodeError, StorageError
from repro.mainchain.utxo import Outpoint, TxOutput


def _strict(read_item, data: bytes):
    try:
        dec = Decoder(data)
        value = read_item(dec)
        dec.done()
    except DecodeError as exc:
        raise StorageError(f"corrupt snapshot section: {exc}")
    return value


# ---------------------------------------------------------------------------
# Latus state
# ---------------------------------------------------------------------------


def encode_latus_state(state) -> bytes:
    """``LatusState`` → bytes: depth, occupied leaves, touched set, BT list."""
    tree = state.mst._tree
    enc = Encoder().u32(state.mst.depth)
    positions = sorted(tree.occupied_positions())
    enc.sequence(
        positions, lambda e, p: e.u64(p).field_element(tree.get_leaf(p))
    )
    enc.sequence(sorted(state.mst.touched_positions), lambda e, p: e.u64(p))
    enc.sequence(
        state.backward_transfers, lambda e, bt: e.var_bytes(bt.encode())
    )
    return enc.done()


def _read_latus_state(dec: Decoder, node_store):
    from repro.latus.state import LatusState

    depth = dec.u32()
    leaves = dec.sequence(lambda d: (d.u64(), d.field_element()))
    touched = dec.sequence(lambda d: d.u64())
    bts = dec.sequence(lambda d: wire._nested(d, wire.read_backward_transfer))
    state = LatusState(depth, node_store=node_store)
    if leaves:
        state.mst._tree.set_leaves(dict(leaves))
    # a committed state is only read: leave it clean, as copy() leaves
    # an anchor taken at run time
    state.mst.node_store.flush()
    state.mst._touched = set(touched)
    state.backward_transfers = list(bts)
    return state


def decode_latus_state(data: bytes, node_store=None):
    """Strict inverse of :func:`encode_latus_state`, its tree on
    ``node_store`` (a fresh dict store when None)."""
    return _strict(lambda dec: _read_latus_state(dec, node_store), data)


# ---------------------------------------------------------------------------
# Certificate anchors (the SC_CERT record)
# ---------------------------------------------------------------------------


def encode_anchor(anchor) -> bytes:
    """A ``CertificateAnchor`` → the payload of its ``SC_CERT`` record.

    The anchor's ``mst_root`` and ``mst_delta`` are derivable from its
    committed state (root of the tree; delta from the touched set), so only
    the certificate and that state are stored.
    """
    return (
        Encoder()
        .var_bytes(anchor.certificate.encode())
        .var_bytes(encode_latus_state(anchor.state_snapshot))
        .done()
    )


def decode_anchor(data: bytes, node_store=None):
    """Strict inverse of :func:`encode_anchor`, the committed state's tree
    on ``node_store`` (a fresh dict store when None)."""
    from repro.latus.node import CertificateAnchor

    cert_bytes, state_bytes = _strict(lambda d: (d.var_bytes(), d.var_bytes()), data)
    return CertificateAnchor(
        certificate=wire.decode_withdrawal_certificate(cert_bytes),
        state_snapshot=decode_latus_state(state_bytes, node_store),
    )


# ---------------------------------------------------------------------------
# Mainchain state
# ---------------------------------------------------------------------------


def encode_mainchain_state(state) -> bytes:
    """``MainchainState`` → bytes (everything except the block-hash chain,
    which the caller reconstructs from the logged active chain)."""
    enc = Encoder()

    # UTXO set, in outpoint order for a canonical byte string
    def _write_coin(e: Encoder, item) -> None:
        key, (addr, amount, created_height, maturity_height) = item
        e.raw(Outpoint.from_key(key).encode())
        e.var_bytes(TxOutput(addr, amount).encode())
        e.u64(created_height).u64(maturity_height)

    enc.sequence(state.utxos.entries(), _write_coin)

    # safeguard balances
    balances = sorted(state.cctp.safeguard._balances.items())
    enc.sequence(balances, lambda e, item: e.raw(item[0]).u64(item[1]))

    # sidechain registry entries, each with its nullifiers in sorted order:
    # the state-wide keys are ``ledger_id + nullifier``, so sorting them
    # sorts the nullifiers within each ledger id
    nullifiers = {
        ledger_id: [key[32:] for key in keys]
        for ledger_id, keys in groupby(
            sorted(state.cctp.nullifiers), key=lambda key: key[:32]
        )
    }

    def _write_entry(e: Encoder, item) -> None:
        from repro.core.cctp import SidechainStatus

        ledger_id, entry = item
        e.var_bytes(entry.config.encode())
        e.boolean(entry.status is SidechainStatus.CEASED)
        e.optional(entry.ceased_at_height, lambda ee, h: ee.u64(h))

        def _write_cert(ee: Encoder, cert_item) -> None:
            epoch, record = cert_item
            ee.u64(epoch)
            ee.var_bytes(record.certificate.encode())
            ee.u64(record.included_at_height)
            ee.raw(record.included_in_block)

        e.sequence(entry.certificates.items(), _write_cert)
        e.sequence(nullifiers.get(ledger_id, ()), lambda ee, n: ee.var_bytes(n))
        e.raw(entry.last_cert_block_hash)

    entries = sorted(state.cctp.sidechains.items())
    enc.sequence(entries, _write_entry)
    enc.i64(state.cctp._advanced_to)

    # pending certificate payouts, each at output (cert id, position)
    def _write_payouts(e: Encoder, item) -> None:
        cert_id, (ledger_id, maturity, *fields) = item
        e.raw(cert_id)

        def _write_payout(ee: Encoder, payout) -> None:
            index, (addr, amount) = payout
            ee.raw(Outpoint(cert_id, index).encode())
            ee.var_bytes(TxOutput(addr, amount).encode())
            ee.u64(maturity)
            ee.raw(ledger_id)

        e.sequence(list(enumerate(zip(fields[::2], fields[1::2]))), _write_payout)

    enc.sequence(sorted(state.pending_payouts.items()), _write_payouts)
    return enc.done()


def decode_mainchain_state(data: bytes, params):
    """Strict inverse of :func:`encode_mainchain_state`.

    The ceasing-deadline index and the payout-maturity index are derived
    caches and are rebuilt from the restored entries/payouts rather than
    stored; ``height``/``block_hashes`` are left for the caller to fill
    from the chain it rebuilds from the log.
    """
    from repro.core.cctp import CertificateRecord, SidechainEntry, SidechainStatus, slot_append
    from repro.mainchain.chain import MainchainState

    def _read(dec: Decoder):
        state = MainchainState(params)

        def _read_coin(d: Decoder):
            key = wire.read_outpoint(d).key
            output = wire._nested(d, wire.read_tx_output)
            return key, output.addr, output.amount, d.u64(), d.u64()

        for coin in dec.sequence(_read_coin):
            state.utxos.create(*coin)

        for ledger_id, balance in dec.sequence(
            lambda d: (d.raw(32), d.u64())
        ):
            state.cctp.safeguard.open(ledger_id)
            state.cctp.safeguard._balances[ledger_id] = balance

        def _read_entry(d: Decoder):
            config = wire.decode_sidechain_config(d.var_bytes())
            ceased = d.boolean()
            ceased_at = d.optional(lambda dd: dd.u64())
            latest = None
            for expected, (epoch, cert_bytes, included_at, included_block) in enumerate(
                d.sequence(lambda dd: (dd.u64(), dd.var_bytes(), dd.u64(), dd.raw(32)))
            ):
                # adopted epochs are contiguous from 0: the records chain
                if epoch != expected:
                    raise DecodeError("certificate epochs are not 0..n-1 in order")
                certificate = wire.decode_withdrawal_certificate(cert_bytes)
                latest = CertificateRecord(certificate, included_at, included_block, latest)
            nullifiers = d.sequence(lambda dd: dd.var_bytes())
            last_cert_block_hash = d.raw(32)
            for nullifier in nullifiers:
                state.cctp.nullifiers.add(config.ledger_id + nullifier)
            return SidechainEntry(
                config=config,
                status=(
                    SidechainStatus.CEASED if ceased else SidechainStatus.ACTIVE
                ),
                ceased_at_height=ceased_at,
                latest=latest,
                last_cert_block_hash=last_cert_block_hash,
            )

        for entry in dec.sequence(_read_entry):
            state.cctp.sidechains[entry.config.ledger_id] = entry
            if entry.status is SidechainStatus.ACTIVE:
                state.cctp._index_deadline(entry.config.ledger_id, entry)
        state.cctp._advanced_to = dec.i64()

        def _read_payouts(d: Decoder):
            cert_id = d.raw(32)
            rows = d.sequence(
                lambda dd: (wire.read_outpoint(dd), wire._nested(dd, wire.read_tx_output),
                            dd.u64(), dd.raw(32))
            )
            # the state holds one ledger id and maturity per certificate and
            # its outputs at (cert id, 0), (cert id, 1), ...
            if not rows or any(
                (outpoint, maturity, ledger_id) != (Outpoint(cert_id, i), *rows[0][2:])
                for i, (outpoint, _, maturity, ledger_id) in enumerate(rows)
            ):
                raise DecodeError("pending payouts do not match their certificate")
            fields = [field for _, out, _, _ in rows for field in (out.addr, out.amount)]
            return cert_id, (rows[0][3], rows[0][2], *fields)

        for cert_id, pending in dec.sequence(_read_payouts):
            state.pending_payouts[cert_id] = pending
            slot_append(state._payout_maturities, pending[1], cert_id)
        return state

    return _strict(_read, data)
