"""The operation ledger: counted costs a change may only lower.

Each row of :data:`CEILINGS` is a count measured on a fixed run; a change
that lowers a count lowers its row in the same diff, and no change raises
one.  A failing row prints the ceiling against the count it measured.

Mainchain rows: what the MC state keeps alive for the cyclic garbage
collector.  The UTXO set and the pending-payout map hold their coins and
payouts as tuples of atoms under byte keys, which the collector stops
tracking after its first pass over them, so no collection walks a
coin or a payout twice.  The CCTP state of a block is one registry map of
immutable sidechain entries, one nullifier set, the safeguard balances and
the ceasing-deadline index: four copy-on-write containers (five objects, as
a ``CowSet`` wraps a ``CowDict``) per block, however many entries change.
"""

from __future__ import annotations

import gc

from repro.core.cow import CowDict, CowSet
from tests.test_mainchain_state_bytes import WIDE, fixed_chain

#: name -> ceiling, measured on the named fixed run.
CEILINGS = {
    # fixed_chain(): keys and values of the UTXO set after a collection
    "mc.utxo.gc_tracked": 0,
    # fixed_chain(): keys, values and value parts of the pending payouts
    "mc.pending_payouts.gc_tracked": 0,
    # fixed_chain(): CowDict/CowSet instances reachable from the CCTP states
    # of its 15 block records (genesis to 14)
    "mc.cctp.cow_containers": 75,
}


def _tracked(objects) -> int:
    return sum(1 for obj in objects if gc.is_tracked(obj))


def _reachable(roots, kind) -> int:
    """Distinct instances of ``kind`` reachable from ``roots`` through
    :func:`gc.get_referents`, not descending into classes."""
    seen: set[int] = set()
    found = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found += isinstance(obj, kind)
        stack.extend(gc.get_referents(obj))
    return found


def _check(measured: dict[str, int]) -> None:
    over = {name: (CEILINGS[name], n) for name, n in measured.items() if n > CEILINGS[name]}
    assert not over, f"ceiling, measured: {over}"


def test_mainchain_state_holds_no_tracked_object():
    """The fixed chain matured a certificate of ``WIDE`` BTs and holds one
    more pending; after a collection neither map keeps a tracked object."""
    state = fixed_chain().state
    gc.collect()
    coins, pending = state.utxos._coins, state.pending_payouts
    assert len(coins) > WIDE and len(pending) == 1
    payout_parts = [part for item in pending.items() for part in (*item, *item[1])]
    _check(
        {
            "mc.utxo.gc_tracked": _tracked([*coins.keys(), *coins.values()]),
            "mc.pending_payouts.gc_tracked": _tracked(payout_parts),
        }
    )


def test_cctp_states_share_their_entries_and_nullifiers():
    """Every block record keeps its own CCTP state; the entries and
    nullifiers they share add no container of their own."""
    records = fixed_chain().chain._records.values()
    states = [record.state.cctp for record in records if record.state is not None]
    assert len(states) == 15
    _check({"mc.cctp.cow_containers": _reachable(states, (CowDict, CowSet))})
