"""Byte-oriented hashing helpers with domain separation.

The mainchain side of the protocol (block ids, transaction ids, commitment
trees as seen by MC full nodes) hashes *bytes*; the SNARK side hashes *field
elements* (see :mod:`repro.crypto.mimc`).  This module provides the byte
side: blake2b-based, 32-byte digests, with explicit domain tags so that
hashes of different object kinds can never collide structurally.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

DIGEST_SIZE: int = 32

#: Canonical all-zero digest, used e.g. for empty subtree placeholders.
NULL_DIGEST: bytes = b"\x00" * DIGEST_SIZE


def hash_bytes(data: bytes, domain: bytes = b"") -> bytes:
    """Hash ``data`` under optional ``domain`` separation tag."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE, person=_person(domain)).digest()


def hash_concat(parts: Iterable[bytes], domain: bytes = b"") -> bytes:
    """Hash a length-prefixed concatenation of byte strings.

    Length prefixes make the encoding injective: ``["ab", "c"]`` and
    ``["a", "bc"]`` hash differently.
    """
    return hash_bytes(b"".join(len(part).to_bytes(4, "little") + part for part in parts), domain)


def hash_pair(left: bytes, right: bytes, domain: bytes = b"node") -> bytes:
    """Hash an ordered pair of digests — the Merkle interior-node function."""
    return hashlib.blake2b(left + right, digest_size=DIGEST_SIZE, person=_person(domain)).digest()


def hash_int(value: int, domain: bytes = b"") -> bytes:
    """Hash an unsigned integer (little-endian, 8 bytes)."""
    return hash_bytes(value.to_bytes(8, "little"), domain)


@functools.cache
def _person(domain: bytes) -> bytes:
    """Clamp a domain tag to blake2b's 16-byte personalisation field."""
    return domain[:16].ljust(16, b"\x00")
