"""Cryptographic substrate: fields, hashes, Merkle trees, signatures.

Public surface:

* :mod:`repro.crypto.field` — the SNARK field (2**255 - 19), plain CPython
  integers on every path.
* :mod:`repro.crypto.mimc` — circuit-friendly MiMC permutation/hash.
* :mod:`repro.crypto.hashing` — byte-level blake2b helpers.
* :mod:`repro.crypto.merkle` — variable-size Merkle hash trees (Def. 2.2).
* :mod:`repro.crypto.fixed_merkle` — fixed-depth field trees (the MST base).
* :mod:`repro.crypto.signatures` / :mod:`repro.crypto.keys` — Schnorr keys.
"""

from repro.crypto.field import Fp, MODULUS
from repro.crypto.fixed_merkle import EMPTY_LEAF, FieldMerkleProof, FixedMerkleTree, empty_root
from repro.crypto.hashing import NULL_DIGEST, hash_bytes, hash_concat, hash_pair
from repro.crypto.keys import KeyPair, address_of
from repro.crypto.merkle import MerkleProof, MerkleTree, leaf_hash, merkle_root
from repro.crypto.mimc import (
    clear_cache as clear_mimc_cache,
    mimc_compress,
    mimc_compress_many,
    mimc_hash,
    mimc_hash_bytes,
    mimc_permutation,
)
from repro.crypto.signatures import PrivateKey, PublicKey, Signature

__all__ = [
    "EMPTY_LEAF",
    "Fp",
    "FieldMerkleProof",
    "FixedMerkleTree",
    "KeyPair",
    "MODULUS",
    "MerkleProof",
    "MerkleTree",
    "NULL_DIGEST",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "address_of",
    "clear_mimc_cache",
    "empty_root",
    "hash_bytes",
    "hash_concat",
    "hash_pair",
    "leaf_hash",
    "merkle_root",
    "mimc_compress",
    "mimc_compress_many",
    "mimc_hash",
    "mimc_hash_bytes",
    "mimc_permutation",
]
