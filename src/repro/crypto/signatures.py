"""Schnorr signatures over a classic discrete-log group.

The paper's transactions (§5.3) authorize spends with signatures; it does not
prescribe a scheme.  We implement deterministic Schnorr signatures over the
1536-bit MODP group of RFC 3526 (a safe prime ``p``; generator 2 generates
the prime-order-``q`` subgroup with ``q = (p-1)/2``).  Pure Python modular
exponentiation makes this entirely self-contained.

Nonces are derived deterministically from ``(sk, message)`` à la RFC 6979 so
that signing is reproducible and never reuses a nonce across messages.

Cost model.  Secret keys, nonces and challenges are 64-byte hashes, so the
only exponents longer than 512 bits are the response ``s`` (≈1024 bits from
an honest signer) and whatever a hostile signature carries.  Every power of
the generator — ``g**sk``, ``g**k``, ``g**s`` — is a walk over one lazily
grown :class:`FixedBaseTable` (no squarings).  The other power, ``pk**-e``
in verification, has a 512-bit exponent and a base that traffic repeats, so
each key gets a :class:`KeyComb` at its first sighting: the build costs less
than the one ``pow`` it replaces, every later power 86 squarings, not 512.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro import observability
from repro.errors import SignatureError

_REGISTRY = observability.registry()
_VERIFIES = _REGISTRY.counter(
    "repro_signature_verifies_total",
    "Schnorr verification calls (cached or not)",
).labels()
_VERIFY_CACHE_HITS = _REGISTRY.counter(
    "repro_signature_cache_hits_total",
    "verification-cache hits",
).labels()

#: Maximum memoized verification verdicts.  Each entry is a small tuple key
#: (group element, message digest, two scalars) plus a bool; eviction is
#: FIFO (oldest insertion first), mirroring the MiMC compress cache.
VERIFY_CACHE_MAX_ENTRIES: int = 1 << 14

_verify_cache: dict[tuple[int, bytes, int, int], bool] = {}

#: Maximum resident :class:`KeyComb` tables, FIFO-evicted: ≈15 KB each (63
#: group elements), under 4 MB at the bound.  Key churn past it makes every
#: verification pay the first-sighting price, ≤1.05x the ``pow`` replaced.
KEY_COMB_MAX_ENTRIES: int = 1 << 8

_key_combs: dict[int, KeyComb] = {}


def clear_verify_cache() -> None:
    """Drop every memoized verdict and per-key comb (benchmark isolation hook)."""
    _verify_cache.clear()
    _key_combs.clear()


#: RFC 3526 group 5 modulus (1536-bit safe prime).
GROUP_P: int = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)

#: Order of the prime-order subgroup generated by 2.
GROUP_Q: int = (GROUP_P - 1) // 2

#: Subgroup generator.
GROUP_G: int = 2


class FixedBaseTable:
    """Window table for raising one fixed ``base`` to many exponents.

    Row ``i`` holds ``base**(j << (5 * i)) mod modulus`` for every 5-bit
    digit ``j``, so ``base**e`` is the product of one entry per non-zero
    digit of ``e``: ``n / 5`` multiplications for an ``n``-bit exponent and
    none of the ``n`` squarings a windowed ladder (``pow``) pays on top of
    them.  Rows are built the first time an exponent reaches them (31
    multiplications each) and kept for the life of the table, so its size
    is bounded by the longest exponent ever raised: for the 1536-bit
    Schnorr group, 205 rows (~1.5 MB) for honest signatures and at most 307
    (~2.3 MB) for any scalar below the group order.

    The rows are a deterministic function of ``(base, modulus)``: a table
    is a memo, not state, and every process grows its own.  Like the verify
    cache it assumes single-threaded use.
    """

    __slots__ = ("base", "modulus", "_rows")

    #: Bits per digit.  5 balances the walk (one multiplication per digit)
    #: against resident size (``2**5 - 1`` group elements per row).
    _WINDOW = 5

    def __init__(self, base: int, modulus: int) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self._rows: list[list[int]] = []

    def __len__(self) -> int:
        """Rows built so far."""
        return len(self._rows)

    def _grow(self, rows_needed: int) -> None:
        rows = self._rows
        modulus = self.modulus
        while len(rows) < rows_needed:
            # the next row's generator is the last row's base**32
            step = rows[-1][-1] * rows[-1][1] % modulus if rows else self.base
            row = [1, step]
            for _ in range(2, 1 << self._WINDOW):
                row.append(row[-1] * step % modulus)
            rows.append(row)

    def pow(self, exponent: int) -> int:
        """``base**exponent mod modulus`` for a non-negative ``exponent``."""
        if exponent < 0:
            raise SignatureError("fixed-base exponent must be non-negative")
        window = self._WINDOW
        rows_needed = -(-exponent.bit_length() // window)
        if rows_needed > len(self._rows):
            self._grow(rows_needed)
        modulus = self.modulus
        mask = (1 << window) - 1
        result = 1
        for row in self._rows[:rows_needed]:
            digit = exponent & mask
            if digit:
                result = result * row[digit] % modulus
            exponent >>= window
        return result


#: Powers of the generator, shared by key derivation, signing and verifying.
_G_POWERS = FixedBaseTable(GROUP_G, GROUP_P)


class KeyComb:
    """Lim–Lee comb for raising one public key to many negated challenges.

    A challenge ``e`` is read as six blocks of 86 bits (516 >= 512).  With
    ``_table[d]`` the product of ``pk**-(2**(86 * i))`` over the set bits
    ``i`` of ``d``, ``pk**-e`` is 86 steps of "square, then multiply by the
    entry for the column of six bits that sit 86 apart" where ``pow`` pays
    512 squarings and about 100 multiplications.  The build is one inverse,
    430 squarings, 57 multiplications and the key's Jacobi symbol (kept as
    ``negate``, see :meth:`PublicKey.verify`).  A comb is a memo, not state.
    """

    __slots__ = ("_table", "negate")

    #: Geometry: one more block doubles the table and the build.
    _BLOCKS = 6
    _BLOCK_BITS = 86

    def __init__(self, point: int) -> None:
        base = pow(point, -1, GROUP_P)
        table = [1, base]
        for _ in range(1, self._BLOCKS):
            for _ in range(self._BLOCK_BITS):
                base = base * base % GROUP_P
            table += [entry * base % GROUP_P for entry in table]
        self._table = table
        self.negate = jacobi(point, GROUP_P) < 0

    def pow_neg(self, exponent: int) -> int:
        """``pk**-exponent mod p`` for ``0 <= exponent < 2**516``."""
        stride = self._BLOCK_BITS
        width = self._BLOCKS * stride
        if exponent < 0 or exponent.bit_length() > width:
            raise SignatureError("comb exponent out of range")
        bits = format(exponent, f"0{width}b")
        result = 1
        for column in range(stride):
            result = result * result % GROUP_P
            # the column's six bits, top block first: the table's index
            digit = int(bits[column::stride], 2)
            if digit:
                result = result * self._table[digit] % GROUP_P
        return result


_CHALLENGE_DOMAIN = b"zendoo/schnorr-e"
_NONCE_DOMAIN = b"zendoo/schnorr-k"

#: Digest size behind every hashed scalar (secret key, nonce, challenge).
#: ``2**512 < q``, so the reduction in :func:`_hash_to_scalar` never fires
#: and no honest challenge is longer than this many bytes.
_SCALAR_HASH_BYTES = 64


def _hash_to_scalar(*parts: bytes, domain: bytes) -> int:
    h = hashlib.blake2b(
        digest_size=_SCALAR_HASH_BYTES, person=domain[:16].ljust(16, b"\x00")
    )
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return int.from_bytes(h.digest(), "little") % GROUP_Q


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd positive ``n``: 1, -1, or 0 when
    ``gcd(a, n) > 1``.  For prime ``n`` it equals ``a**((n-1)/2) mod n``
    (Euler's criterion) at a fortieth of the cost: binary reciprocity, no
    exponentiation.
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(e, s)`` with ``g**s == r * pk**e`` implied."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        """Serialize to a fixed 384-byte string (two 192-byte scalars)."""
        return self.e.to_bytes(192, "little") + self.s.to_bytes(192, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Deserialize from :meth:`to_bytes` output."""
        if len(data) != 384:
            raise SignatureError(f"signature must be 384 bytes, got {len(data)}")
        return cls(
            e=int.from_bytes(data[:192], "little"),
            s=int.from_bytes(data[192:], "little"),
        )


@dataclass(frozen=True)
class PublicKey:
    """A group element ``g**sk``; the verification half of a key pair."""

    point: int

    def to_bytes(self) -> bytes:
        """Serialize the group element to a fixed 192-byte string."""
        return self.point.to_bytes(192, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) != 192:
            raise SignatureError(f"public key must be 192 bytes, got {len(data)}")
        return cls(point=int.from_bytes(data, "little"))

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Return True iff ``signature`` is valid for ``message``.

        Verdicts are memoized in a bounded cache: verification is a pure
        function of ``(pk, message, signature)``, and the protocol verifies
        the same transaction signatures repeatedly (mempool admission, block
        connection, then once more inside every base-circuit synthesis), so
        re-verification costs a dict lookup.

        A first sighting recomputes the commitment as ``r = g**s * pk**-e``:
        ``g**s`` from the fixed-base table, ``pk**-e`` from the key's
        :class:`KeyComb`, built once the range checks below have passed (a
        rejected input builds nothing).  The scheme's defining rule is
        ``r = g**s * pk**(q - e)``, which differs exactly when ``pk`` lies
        outside the order-``q`` subgroup: then ``pk**q == -1`` and the two
        disagree by a sign.  The Jacobi symbol of ``pk`` *is* ``pk**q``, so
        negating ``r`` on a non-residue key keeps the verdict that of the
        defining rule on every input, well-formed or hostile.
        """
        _VERIFIES.inc()
        key = (
            self.point,
            hashlib.blake2b(message, digest_size=32).digest(),
            signature.e,
            signature.s,
        )
        cache = _verify_cache
        cached = cache.get(key)
        if cached is not None:
            _VERIFY_CACHE_HITS.inc()
            return cached
        if not 0 < signature.e < GROUP_Q or not 0 < signature.s < GROUP_Q:
            valid = False
        elif signature.e.bit_length() > 8 * _SCALAR_HASH_BYTES:
            # longer than any challenge hash: cannot match, skip the modexps
            valid = False
        elif not 1 < self.point < GROUP_P:
            valid = False
        else:
            comb = _key_combs.get(self.point)
            if comb is None:
                if len(_key_combs) >= KEY_COMB_MAX_ENTRIES:
                    _key_combs.pop(next(iter(_key_combs)))
                comb = _key_combs[self.point] = KeyComb(self.point)
            # r = g**s * pk**(-e)  ==  g**(k + e*sk - e*sk)  ==  g**k
            r = _G_POWERS.pow(signature.s) * comb.pow_neg(signature.e) % GROUP_P
            if comb.negate:
                r = GROUP_P - r
            expected_e = _hash_to_scalar(
                _int_bytes(r), self.to_bytes(), message, domain=_CHALLENGE_DOMAIN
            )
            valid = expected_e == signature.e
        if len(cache) >= VERIFY_CACHE_MAX_ENTRIES:
            cache.pop(next(iter(cache)))
        cache[key] = valid
        return valid


@dataclass(frozen=True)
class PrivateKey:
    """The signing half of a key pair: a scalar in ``[1, q)``."""

    scalar: int

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a private key deterministically from a byte seed."""
        scalar = _hash_to_scalar(seed, domain=b"zendoo/schnorr-sk")
        if scalar == 0:
            scalar = 1
        return cls(scalar=scalar)

    @cached_property
    def _public(self) -> PublicKey:
        return PublicKey(point=_G_POWERS.pow(self.scalar))

    def public_key(self) -> PublicKey:
        """The corresponding public key ``g**sk``, derived once per key."""
        return self._public

    def sign(self, message: bytes) -> Signature:
        """Produce a deterministic Schnorr signature on ``message``."""
        sk_bytes = self.scalar.to_bytes(192, "little")
        k = _hash_to_scalar(sk_bytes, message, domain=_NONCE_DOMAIN)
        if k == 0:
            k = 1
        r = _G_POWERS.pow(k)
        pk = self.public_key()
        e = _hash_to_scalar(_int_bytes(r), pk.to_bytes(), message, domain=_CHALLENGE_DOMAIN)
        if e == 0:
            raise SignatureError("degenerate challenge; re-key and retry")
        s = (k + e * self.scalar) % GROUP_Q
        return Signature(e=e, s=s)
