"""MiMC-style circuit-friendly permutation and hash.

The paper (§5.4) requires "an efficient hashing procedure as it should be
implemented for a SNARK arithmetic constraint system".  We instantiate a
MiMC-like permutation over the field of :mod:`repro.crypto.field`:

    ``F(x, k) = r_n`` where ``r_0 = x`` and ``r_{i+1} = (r_i + k + c_i) ** 5``

with ``ROUNDS`` rounds and per-round constants ``c_i`` derived from a
nothing-up-my-sleeve seed.  Exponent 5 is used because ``gcd(5, p-1) == 1``
for our prime, making each round a bijection.  Each round costs exactly three
R1CS multiplications, which is what makes the hash "circuit friendly" — the
R1CS gadget in :mod:`repro.snark.gadgets.mimc` mirrors this function
constraint-for-constraint.

Hashing uses the Miyaguchi–Preneel construction over the permutation, which
is the standard way to build a collision-resistant compression function from
MiMC.

Performance layer (see docs/PERFORMANCE.md):

* the permutation executed at runtime is *compiled*: a fully unrolled
  function with the round constants baked into its source is generated and
  ``exec``-ed at import, eliminating per-round loop and constant-lookup
  overhead, and its rounds fold at bit 255 instead of dividing;
* :func:`mimc_compress` memoizes results in a bounded FIFO cache keyed on
  the canonical ``(left, right)`` pair, so repeated compressions (shared
  ancestors across epochs, snapshot copies, re-verification of the same
  Merkle proofs) cost a dict lookup instead of 110 rounds;
* the prover takes each permutation native hashing already ran from that
  memo (:func:`memo_permutation`).  Sound: only the compiled permutation
  fills the memo, so a wrong entry would already have corrupted the native
  roots a proof attests to.  The read writes and counts nothing, so the
  ``repro_mimc_*_total`` counters (benchmarks, ``repro.cli metrics``) count
  native hashing alone.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from repro import observability
from repro.crypto import field
from repro.crypto.field import MODULUS
from repro.errors import FieldError

#: Number of rounds of the permutation.  For exponent-5 MiMC the security
#: analysis requires ceil(log5(p)) ≈ 110 rounds; we use 110.
ROUNDS: int = 110

_CONSTANT_SEED = b"zendoo-repro/mimc-constants/v1"


def _derive_round_constants(rounds: int = ROUNDS, seed: bytes = _CONSTANT_SEED) -> tuple[int, ...]:
    """Derive per-round constants from ``seed`` via blake2b counter mode.

    The first constant is fixed to zero, as in the MiMC specification.
    """
    constants = [0]
    for i in range(1, rounds):
        digest = hashlib.blake2b(seed + i.to_bytes(4, "little"), digest_size=32).digest()
        constants.append(int.from_bytes(digest, "little") % MODULUS)
    return tuple(constants)


#: The round constants used by every permutation call in the library.
ROUND_CONSTANTS: tuple[int, ...] = _derive_round_constants()


# ---------------------------------------------------------------------------
# Compiled permutation
# ---------------------------------------------------------------------------


def _round_lines(constants: Sequence[int], modulus: int, indent: str) -> list[str]:
    """Source of the unrolled rounds over ``r`` and ``k``.

    No product is followed by a division: ``2**255 ≡ 19 (mod p)``, so ``x``
    and ``(x & (2**255 - 1)) + 19 * (x >> 255)`` are congruent.  One fold
    after ``t * t`` and ``t2 * t2`` and two after ``t4 * t`` keep every
    folded value under ``2**290`` and ``r`` within ``2**38`` of canonical
    (replayed in ``tests/test_mimc.py``); the caller reduces ``r`` once.
    """
    if modulus != (1 << 255) - 19:
        raise FieldError("the MiMC rounds fold by 2**255 - 19, not by another modulus")
    fold = f"(x & {(1 << 255) - 1}) + 19 * (x >> 255)"
    lines = []
    for c in constants:
        lines += [
            f"t = r + k + {c}" if c else "t = r + k",
            "x = t * t",
            f"t2 = {fold}",
            "x = t2 * t2",
            f"t4 = {fold}",
            "x = t4 * t",
            f"x = {fold}",
            f"r = {fold}",
        ]
    return [indent + line for line in lines]


def _compile_permutation(
    constants: Sequence[int], modulus: int
) -> Callable[[int, int], int]:
    """Code-generate the fully unrolled permutation with baked-in constants.

    Emits one straight-line function body (:func:`_round_lines`) and
    compiles it.  Arguments must already be canonical field ints.
    """
    lines = [f"def _mimc_permutation_compiled(r, k, _M={modulus}):"]
    lines += _round_lines(constants, modulus, "    ")
    lines.append("    return (r + k) % _M")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<mimc-compiled>", "exec"), namespace)
    fn = namespace["_mimc_permutation_compiled"]
    fn.__doc__ = (
        f"Unrolled {len(constants)}-round MiMC permutation "
        "(generated by repro.crypto.mimc._compile_permutation)."
    )
    return fn


#: The unrolled permutation used by every hot-path call.  Takes canonical
#: field ints; bypasses the ``repro_mimc_*`` counters (callers count).
_permutation_compiled: Callable[[int, int], int] = _compile_permutation(
    ROUND_CONSTANTS, MODULUS
)


# ---------------------------------------------------------------------------
# Hash-op accounting
# ---------------------------------------------------------------------------


_REGISTRY = observability.registry()

#: Bound counter series for the hot path — one attribute load + branch +
#: in-place add per event, and a pure no-op when the registry is disabled.
_COMPRESSIONS = _REGISTRY.counter(
    "repro_mimc_compressions_total",
    "mimc_compress calls (cached or not)",
).labels()
_PERMUTATIONS = _REGISTRY.counter(
    "repro_mimc_permutations_total",
    "actual MiMC permutation executions (the real work)",
).labels()
_CACHE_HITS = _REGISTRY.counter(
    "repro_mimc_cache_hits_total",
    "compress-cache hits",
).labels()
_CACHE_MISSES = _REGISTRY.counter(
    "repro_mimc_cache_misses_total",
    "compress-cache misses",
).labels()
_BATCH_CALLS = _REGISTRY.counter(
    "repro_field_batch_calls_total",
    "mimc_compress_many calls that permuted at least one pair",
).labels()
_BATCH_ELEMENTS = _REGISTRY.counter(
    "repro_field_batch_elements_total",
    "pairs permuted by mimc_compress_many",
).labels()


# ---------------------------------------------------------------------------
# Bounded compress memo cache
# ---------------------------------------------------------------------------

#: Maximum number of memoized ``(left, right) -> digest`` entries.  At two
#: 255-bit keys plus one value per entry this bounds the cache at a few
#: tens of MB; eviction is FIFO (oldest insertion first).
CACHE_MAX_ENTRIES: int = 1 << 16

_compress_cache: dict[tuple[int, int], int] = {}


def clear_cache() -> None:
    """Drop every memoized compression (benchmark isolation hook)."""
    _compress_cache.clear()


def cache_size() -> int:
    """Number of currently memoized compressions."""
    return len(_compress_cache)


# ---------------------------------------------------------------------------
# Public hash API
# ---------------------------------------------------------------------------


def mimc_permutation(x: int, k: int) -> int:
    """Apply the keyed MiMC permutation to ``x`` under key ``k``.

    Both arguments and the result are canonical field ints.  Dispatches to
    the compiled unrolled permutation.
    """
    _PERMUTATIONS.inc()
    return _permutation_compiled(x % MODULUS, k % MODULUS)


def mimc_compress(left: int, right: int) -> int:
    """Miyaguchi–Preneel compression: ``H(l, r) = E_r(l) + l + r``.

    This is the two-to-one compression used for all Merkle tree nodes whose
    membership must be provable in-circuit.  Results are memoized in a
    bounded cache keyed on the canonical input pair, so re-compressing a
    node already seen (proof re-verification, shared subtrees) is free.
    """
    left %= MODULUS
    right %= MODULUS
    key = (left, right)
    _COMPRESSIONS.inc()
    cache = _compress_cache
    cached = cache.get(key)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    _CACHE_MISSES.inc()
    _PERMUTATIONS.inc()
    out = (_permutation_compiled(left, right) + left + right) % MODULUS
    if len(cache) >= CACHE_MAX_ENTRIES:
        del cache[next(iter(cache))]
    cache[key] = out
    return out


def memo_permutation(x: int, k: int) -> int:
    """``E_k(x)`` of canonical ``x, k``: ``H - x - k`` when the memo holds
    ``H = mimc_compress(x, k)``, else the compiled permutation.  Writes no
    entry and moves no counter."""
    digest = _compress_cache.get((x, k))
    if digest is None:
        return _permutation_compiled(x, k)
    return (digest - x - k) % MODULUS


def mimc_compress_many(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Batched Miyaguchi–Preneel compression over many ``(left, right)`` pairs.

    Semantically ``[mimc_compress(l, r) for l, r in pairs]`` — same memo
    cache, same counters, byte-identical outputs — but the pairs that miss
    the cache are deduplicated first, so a pair repeated within one batch
    costs one permutation.  The ``repro_field_batch_*`` counters record how
    many batches permuted anything and how many pairs they permuted.  This
    is the entry point :meth:`FixedMerkleTree.set_leaves` uses to recompute
    a whole tree level at once.
    """
    n = len(pairs)
    if n == 0:
        return []
    _COMPRESSIONS.inc(n)
    cache = _compress_cache
    out: list[int | None] = [None] * n
    # Deduplicate misses while keeping first-seen order, so a pair appearing
    # twice in one batch costs one permutation (matching the serial loop,
    # where the second call would hit the cache).
    miss_keys: list[tuple[int, int]] = []
    miss_index: dict[tuple[int, int], int] = {}
    positions: list[int] = []  # position in miss_keys for each unresolved slot
    unresolved: list[int] = []
    for i, (left, right) in enumerate(pairs):
        key = (left % MODULUS, right % MODULUS)
        cached = cache.get(key)
        if cached is not None:
            _CACHE_HITS.inc()
            out[i] = cached
            continue
        slot = miss_index.get(key)
        if slot is None:
            slot = len(miss_keys)
            miss_index[key] = slot
            miss_keys.append(key)
            _CACHE_MISSES.inc()
        else:
            _CACHE_HITS.inc()
        unresolved.append(i)
        positions.append(slot)
    if miss_keys:
        _PERMUTATIONS.inc(len(miss_keys))
        _BATCH_CALLS.inc()
        _BATCH_ELEMENTS.inc(len(miss_keys))
        permutation = _permutation_compiled
        digests = [
            (permutation(left, right) + left + right) % MODULUS
            for left, right in miss_keys
        ]
        for key, digest in zip(miss_keys, digests):
            if len(cache) >= CACHE_MAX_ENTRIES:
                del cache[next(iter(cache))]
            cache[key] = digest
        for i, slot in zip(unresolved, positions):
            out[i] = digests[slot]
    return out  # type: ignore[return-value]


def mimc_hash(elements: Sequence[int]) -> int:
    """Hash a sequence of field elements by Miyaguchi–Preneel chaining.

    The chain is *length-tagged*: the initial chaining value is
    ``mimc_compress(0, len(elements))``, absorbing the sequence length as a
    domain tag before any element.  This makes the function total on the
    empty sequence (``mimc_hash([]) == mimc_compress(0, 0)``) and gives
    domain separation between sequences of different lengths — in
    particular ``mimc_hash([])``, ``mimc_hash([0])`` and
    ``mimc_hash([0, 0])`` are pairwise distinct, and a chain value for a
    shorter sequence cannot be extended into the hash of a longer one
    without already colliding on the tag.
    """
    state = mimc_compress(0, len(elements) % MODULUS)
    for element in elements:
        state = mimc_compress(state, element % MODULUS)
    return state


def mimc_hash_bytes(data: bytes) -> int:
    """Hash arbitrary bytes into a field element.

    Bytes are first absorbed through blake2b (cheap, off-circuit) and the
    digest mapped into the field; use :func:`mimc_hash` when the preimage must
    be provable in-circuit.
    """
    digest = hashlib.blake2b(data, digest_size=32).digest()
    return field.element_from_bytes(digest)
