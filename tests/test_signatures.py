"""Unit tests for Schnorr signatures and key pairs.

The differential classes at the bottom pin ``PublicKey.verify`` to the
scheme's defining rule — ``r = g**s * pk**(q - e)``, two full modular
exponentiations, kept here as :func:`oracle_verify` and nowhere in ``src/`` —
on honest, tampered, out-of-range and adversarially crafted inputs, and pin
signature / public-key / address bytes to vectors recorded before
verification moved to the fixed-base table.  ``TestKeyComb`` pins the per-key
comb to ``pow(pk, -e, p)`` and its memo to its bound.
"""

import hashlib
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import signatures
from repro.crypto.keys import KeyPair, address_of
from repro.crypto.signatures import (
    GROUP_G,
    GROUP_P,
    GROUP_Q,
    FixedBaseTable,
    KeyComb,
    PrivateKey,
    PublicKey,
    Signature,
    clear_verify_cache,
    jacobi,
)
from repro.errors import SignatureError
from repro.latus.proofs import LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark.recursive import RecursiveComposer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestGroup:
    def test_safe_prime_relation(self):
        assert GROUP_P == 2 * GROUP_Q + 1

    def test_generator_has_order_q(self):
        assert pow(GROUP_G, GROUP_Q, GROUP_P) == 1
        assert pow(GROUP_G, 2, GROUP_P) != 1


class TestSigning:
    def test_sign_verify_roundtrip(self, keys):
        alice = keys["alice"]
        sig = alice.sign(b"message")
        assert alice.verify(b"message", sig)

    def test_wrong_message_rejected(self, keys):
        sig = keys["alice"].sign(b"message")
        assert not keys["alice"].verify(b"other", sig)

    def test_wrong_key_rejected(self, keys):
        sig = keys["alice"].sign(b"message")
        assert not keys["bob"].verify(b"message", sig)

    def test_deterministic_signatures(self, keys):
        assert keys["alice"].sign(b"m") == keys["alice"].sign(b"m")

    def test_different_messages_different_nonces(self, keys):
        s1 = keys["alice"].sign(b"m1")
        s2 = keys["alice"].sign(b"m2")
        assert s1 != s2

    def test_out_of_range_scalars_rejected(self, keys):
        alice = keys["alice"]
        sig = alice.sign(b"m")
        clear_verify_cache()
        assert not alice.verify(b"m", Signature(e=0, s=sig.s))
        assert not alice.verify(b"m", Signature(e=sig.e, s=0))
        assert not alice.verify(b"m", Signature(e=GROUP_Q, s=sig.s))
        assert not alice.verify(b"m", Signature(e=sig.e, s=GROUP_Q))
        assert not signatures._key_combs  # a rejection builds nothing

    def test_degenerate_pubkey_rejected(self, keys):
        sig = keys["alice"].sign(b"m")
        clear_verify_cache()
        for point in (0, 1, GROUP_P, GROUP_P + 2):
            assert not PublicKey(point=point).verify(b"m", sig)
        assert not signatures._key_combs

    def test_tampered_signature_rejected(self, keys):
        alice = keys["alice"]
        sig = alice.sign(b"m")
        assert not alice.verify(b"m", Signature(e=sig.e ^ 1, s=sig.s))
        assert not alice.verify(b"m", Signature(e=sig.e, s=sig.s ^ 1))


class TestSerialization:
    def test_signature_roundtrip(self, keys):
        sig = keys["alice"].sign(b"m")
        assert Signature.from_bytes(sig.to_bytes()) == sig

    def test_signature_size_fixed(self, keys):
        assert len(keys["alice"].sign(b"m").to_bytes()) == 384

    def test_signature_wrong_size_raises(self):
        with pytest.raises(SignatureError):
            Signature.from_bytes(b"\x00" * 100)

    def test_pubkey_roundtrip(self, keys):
        pk = keys["alice"].public
        assert PublicKey.from_bytes(pk.to_bytes()) == pk

    def test_pubkey_wrong_size_raises(self):
        with pytest.raises(SignatureError):
            PublicKey.from_bytes(b"\x00" * 10)


class TestKeyPairs:
    def test_seed_determinism(self):
        assert KeyPair.from_seed("x").address == KeyPair.from_seed("x").address

    def test_distinct_seeds_distinct_keys(self, keys):
        assert keys["alice"].address != keys["bob"].address

    def test_address_is_pubkey_hash(self, keys):
        assert keys["alice"].address == address_of(keys["alice"].public)

    def test_string_and_bytes_seeds_agree(self):
        assert KeyPair.from_seed("s").address == KeyPair.from_seed(b"s").address

    def test_private_key_from_seed_nonzero(self):
        assert PrivateKey.from_seed(b"anything").scalar != 0

    def test_public_key_derived_once_per_private_key(self, monkeypatch):
        """``sign`` needs ``g**sk`` for the challenge hash; it is raised the
        first time and remembered on the key, never re-derived per call."""
        raised = []

        class CountingTable(FixedBaseTable):
            __slots__ = ()

            def pow(self, exponent):
                raised.append(exponent)
                return super().pow(exponent)

        monkeypatch.setattr(signatures, "_G_POWERS", CountingTable(GROUP_G, GROUP_P))
        clear_verify_cache()
        private = PrivateKey.from_seed(b"derive-once")
        public = private.public_key()
        assert raised == [private.scalar]
        assert private.public_key() is public
        for message in (b"a", b"b"):
            assert public.verify(message, private.sign(message))
        # two nonces and two responses; the key itself was not raised again
        assert raised.count(private.scalar) == 1 and len(raised) == 5
        assert PrivateKey(scalar=private.scalar) == private
        assert hash(PrivateKey(scalar=private.scalar)) == hash(private)

    def test_sign_uses_the_private_half_only(self, keys):
        """A pair assembled from mismatched halves still signs for its
        private key: ``sign`` never trusts ``KeyPair.public``."""
        alice, bob = keys["alice"], keys["bob"]
        mixed = KeyPair(private=alice.private, public=bob.public, address=bob.address)
        sig = mixed.sign(b"m")
        assert sig == alice.sign(b"m")
        assert alice.public.verify(b"m", sig)
        assert not mixed.verify(b"m", sig)


class TestFixedBaseTable:
    def test_equals_pow(self):
        """Exponents of 0, one digit, a row boundary, growing then shrinking
        lengths (rows are built on demand and reused), on the Schnorr group
        and on a random odd modulus."""
        rng = random.Random(17)
        for base, mod in (
            (GROUP_G, GROUP_P),
            (rng.randrange(2, 1 << 200), rng.randrange(3, 1 << 200) | 1),
        ):
            table = FixedBaseTable(base, mod)
            assert len(table) == 0
            exponents = [0, 1, 31, 32, (1 << 40) - 1, 1 << 40]
            exponents += [rng.getrandbits(bits) for bits in (7, 512, 1535, 64, 1024)]
            for exp in exponents:
                assert table.pow(exp) == pow(base, exp, mod)
            assert len(table) == 307

    def test_rejects_negative_exponent(self):
        with pytest.raises(SignatureError):
            FixedBaseTable(2, 101).pow(-1)


# ---------------------------------------------------------------------------
# Differential tests against the two-pow oracle
# ---------------------------------------------------------------------------


def challenge(r: int, pk_point: int, message: bytes) -> int:
    """The scheme's challenge hash, restated independently of ``src/``."""
    h = hashlib.blake2b(digest_size=64, person=b"zendoo/schnorr-e")
    for part in (
        r.to_bytes((r.bit_length() + 7) // 8 or 1, "little"),
        pk_point.to_bytes(192, "little"),
        message,
    ):
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return int.from_bytes(h.digest(), "little") % GROUP_Q


def oracle_verify(pk_point: int, message: bytes, sig: Signature) -> bool:
    """The defining verification rule: ``r = g**s * pk**(q - e)``."""
    if not 0 < sig.e < GROUP_Q or not 0 < sig.s < GROUP_Q:
        return False
    if not 1 < pk_point < GROUP_P:
        return False
    r = pow(GROUP_G, sig.s, GROUP_P) * pow(pk_point, GROUP_Q - sig.e, GROUP_P) % GROUP_P
    return challenge(r, pk_point, message) == sig.e


def verdict(pk_point: int, message: bytes, sig: Signature, keep_combs: bool = False) -> bool:
    """``PublicKey.verify`` on a cold cache (cold verdicts only when
    ``keep_combs``), asserted equal to the oracle."""
    if keep_combs:
        signatures._verify_cache.clear()
    else:
        clear_verify_cache()
    got = PublicKey(point=pk_point).verify(message, sig)
    assert got is oracle_verify(pk_point, message, sig)
    return got


def sign_with_nonce(
    sk: int, pk_point: int, message: bytes, k: int, negate_r: bool = False
) -> Signature:
    """A Schnorr response for a chosen nonce, committed to ``±g**k``."""
    r = pow(GROUP_G, k, GROUP_P)
    if negate_r:
        r = GROUP_P - r
    e = challenge(r, pk_point, message)
    return Signature(e=e, s=(k + e * sk) % GROUP_Q)


def non_residue(rng: random.Random) -> int:
    x = rng.randrange(2, GROUP_P - 1)
    # p = 3 (mod 4), so exactly one of x, -x is a square
    return x if pow(x, GROUP_Q, GROUP_P) == GROUP_P - 1 else GROUP_P - x


class TestDifferentialAgainstOracle:
    def test_honest_signatures(self, keys):
        for name in ("alice", "bob", "miner"):
            for message in (b"", b"m", name.encode() * 40):
                sig = keys[name].sign(message)
                assert verdict(keys[name].public.point, message, sig)

    def test_flipped_message_e_s(self, keys):
        alice = keys["alice"]
        pk, sig = alice.public.point, alice.sign(b"message")
        assert not verdict(pk, b"messagf", sig)
        for bit in (0, 1, 255, 511):
            assert not verdict(pk, b"message", Signature(e=sig.e ^ (1 << bit), s=sig.s))
        for bit in (0, 1, 512, 1023, 1400):
            assert not verdict(pk, b"message", Signature(e=sig.e, s=sig.s ^ (1 << bit)))

    def test_boundary_and_oversized_scalars(self, keys):
        alice = keys["alice"]
        pk, sig = alice.public.point, alice.sign(b"m")
        rng = random.Random(18)
        edge = [0, GROUP_Q, GROUP_Q - 1, 1 << 512, rng.getrandbits(1535) | 1 << 1534]
        for e in edge + [sig.e]:
            for s in edge + [sig.s]:
                expected = (e, s) == (sig.e, sig.s)
                assert verdict(pk, b"m", Signature(e=e, s=s)) is expected

    def test_degenerate_and_non_subgroup_keys(self, keys):
        alice = keys["alice"]
        sig = alice.sign(b"m")
        rng = random.Random(19)
        for point in (
            1,
            GROUP_P - 1,
            GROUP_P,
            non_residue(rng),
            GROUP_P - alice.public.point,
        ):
            assert not verdict(point, b"m", sig)

    def test_signatures_crafted_for_a_negated_key(self, keys):
        """``p - g**sk`` lies outside the subgroup; under the defining rule
        ``pk**(q - e) == (-1)**(q - e) * g**(-sk * e)``, so a response
        committed to ``+g**k`` verifies iff ``e`` is odd and one committed
        to ``-g**k`` iff ``e`` is even.  Verification must keep accepting
        exactly those."""
        sk = keys["mallory"].private.scalar
        hostile = GROUP_P - keys["mallory"].public.point
        assert pow(hostile, GROUP_Q, GROUP_P) == GROUP_P - 1
        accepted = {False: 0, True: 0}
        rejected = 0
        k = 1 << 300
        while min(accepted.values()) < 2 or rejected < 2:
            k += 1
            for negate_r in (False, True):
                sig = sign_with_nonce(sk, hostile, b"crafted", k, negate_r)
                fits = (sig.e % 2 == 0) is negate_r
                assert verdict(hostile, b"crafted", sig) is fits
                if fits:
                    accepted[negate_r] += 1
                else:
                    rejected += 1

    def test_long_nonce_signatures_verify(self, keys):
        """A signer may pick any nonce below q: ``s`` then spans all 1535
        bits and the walk reaches the table's upper rows."""
        alice = keys["alice"]
        rng = random.Random(20)
        for _ in range(3):
            k = rng.randrange(1 << 1533, GROUP_Q)
            sig = sign_with_nonce(alice.private.scalar, alice.public.point, b"long", k)
            assert sig.s.bit_length() > 1500
            assert verdict(alice.public.point, b"long", sig)

    def test_largest_response_grows_table_to_its_last_row(self, keys, monkeypatch):
        alice = keys["alice"]
        pk, sig = alice.public.point, alice.sign(b"m")
        table = FixedBaseTable(GROUP_G, GROUP_P)
        monkeypatch.setattr(signatures, "_G_POWERS", table)
        assert not verdict(pk, b"m", Signature(e=sig.e, s=GROUP_Q - 1))
        full = len(table)
        assert table.pow(GROUP_Q - 1) == pow(GROUP_G, GROUP_Q - 1, GROUP_P)
        # q bounds the table: no admissible response reaches past that row
        assert verdict(pk, b"m", sig)
        assert not verdict(pk, b"m", Signature(e=sig.e, s=GROUP_Q - 2))
        assert len(table) == full > 0

    def test_oversized_challenge_fails_before_any_exponentiation(self, keys, monkeypatch):
        alice = keys["alice"]
        sig = alice.sign(b"m")
        table = FixedBaseTable(GROUP_G, GROUP_P)
        monkeypatch.setattr(signatures, "_G_POWERS", table)
        for e in (1 << 512, sig.e | 1 << 512, GROUP_Q - 1):
            assert not verdict(alice.public.point, b"m", Signature(e=e, s=sig.s))
            assert not signatures._key_combs
        assert len(table) == 0
        assert not verdict(alice.public.point, b"m", Signature(e=(1 << 512) - 1, s=sig.s))
        assert len(table) > 0
        assert list(signatures._key_combs) == [alice.public.point]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.binary(min_size=1, max_size=16), message=st.binary(max_size=80))
    def test_random_seeds_and_messages(self, seed, message):
        kp = KeyPair.from_seed(seed)
        sig = kp.sign(message)
        assert sig == kp.private.sign(message)
        assert verdict(kp.public.point, message, sig)
        assert not verdict(kp.public.point, message + b"\x00", sig)
        assert not verdict(kp.public.point, message, Signature(e=sig.e, s=sig.s + 1))


# ---------------------------------------------------------------------------
# The per-key comb against pow(pk, -e, p), and its memo
# ---------------------------------------------------------------------------

COMB_BITS = KeyComb._BLOCKS * KeyComb._BLOCK_BITS


def assert_comb_is_pow(point: int, exponents) -> None:
    comb = KeyComb(point)
    assert comb.negate is (pow(point, GROUP_Q, GROUP_P) == GROUP_P - 1)
    for e in exponents:
        assert comb.pow_neg(e) == pow(point, -e, GROUP_P)


class TestKeyComb:
    def test_geometry_covers_every_admissible_challenge(self):
        assert COMB_BITS >= 8 * signatures._SCALAR_HASH_BYTES

    def test_edge_exponents(self, keys):
        """0 and 1, the longest challenge and the comb's own capacity, single
        bits on both sides of every block boundary, and exponents whose
        columns are all zero but the first / the last."""
        stride = KeyComb._BLOCK_BITS
        single_bits = [1 << b for b in (1, stride - 1, stride, 2 * stride - 1, 511, 515)]
        last_column_only = sum(1 << stride * i for i in range(KeyComb._BLOCKS))
        first_column_only = last_column_only << stride - 1
        assert_comb_is_pow(
            keys["alice"].public.point,
            [0, 1, (1 << 512) - 1, (1 << COMB_BITS) - 1, *single_bits]
            + [last_column_only, first_column_only, first_column_only >> stride],
        )

    def test_edge_keys(self, keys):
        rng = random.Random(22)
        exponents = [1, (1 << 512) - 1, rng.getrandbits(512)]
        for point in (
            2,
            GROUP_P - 1,
            GROUP_P - 2,
            non_residue(rng),
            non_residue(rng),
            GROUP_P - keys["mallory"].public.point,
        ):
            assert_comb_is_pow(point, exponents)

    @settings(max_examples=20, deadline=None)
    @given(
        point=st.integers(min_value=2, max_value=GROUP_P - 1),
        exponents=st.lists(st.integers(min_value=0, max_value=(1 << 512) - 1), max_size=3),
    )
    def test_random_keys_and_exponents(self, point, exponents):
        assert_comb_is_pow(point, exponents)

    def test_rejects_exponents_it_cannot_hold(self, keys):
        comb = KeyComb(keys["alice"].public.point)
        for exponent in (-1, 1 << COMB_BITS):
            with pytest.raises(SignatureError):
                comb.pow_neg(exponent)

    def test_memo_is_bounded_fifo_and_eviction_keeps_verdicts(self, keys, monkeypatch):
        monkeypatch.setattr(signatures, "KEY_COMB_MAX_ENTRIES", 3)
        clear_verify_cache()
        signers = [keys[n] for n in ("alice", "bob", "carol", "miner", "mallory")]
        sigs = [kp.sign(b"memo") for kp in signers]
        points = [kp.public.point for kp in signers]
        for count, (kp, sig) in enumerate(zip(signers, sigs), start=1):
            assert kp.verify(b"memo", sig)
            assert list(signatures._key_combs) == points[max(0, count - 3) : count]
        resident = signatures._key_combs[points[4]]
        # an evicted key: cold verdicts, a rebuilt comb, the same answers
        signatures._verify_cache.clear()
        assert signers[0].verify(b"memo", sigs[0])
        assert not signers[0].verify(b"memo!", sigs[0])
        assert list(signatures._key_combs) == [points[3], points[4], points[0]]
        # a resident key is served by the table it already has
        signatures._verify_cache.clear()
        assert signers[4].verify(b"memo", sigs[4])
        assert list(signatures._key_combs) == [points[3], points[4], points[0]]
        assert signatures._key_combs[points[4]] is resident
        clear_verify_cache()
        assert not signatures._key_combs and not signatures._verify_cache

    def test_one_comb_per_key_not_per_signature(self, keys, monkeypatch):
        built = []

        class CountingComb(KeyComb):
            __slots__ = ()

            def __init__(self, point):
                built.append(point)
                super().__init__(point)

        monkeypatch.setattr(signatures, "KeyComb", CountingComb)
        clear_verify_cache()
        alice = keys["alice"]
        for message in (b"a", b"b", b"c"):
            assert verdict(alice.public.point, message, alice.sign(message), keep_combs=True)
        assert built == [alice.public.point]
        # the non-residue sign is the key's, remembered with its table
        sk = keys["mallory"].private.scalar
        hostile = GROUP_P - keys["mallory"].public.point
        for k in range(1 << 300, (1 << 300) + 4):
            for negate_r in (False, True):
                sig = sign_with_nonce(sk, hostile, b"crafted", k, negate_r)
                fits = (sig.e % 2 == 0) is negate_r
                assert verdict(hostile, b"crafted", sig, keep_combs=True) is fits
        assert built == [alice.public.point, hostile]


class TestJacobi:
    def test_matches_eulers_criterion(self):
        rng = random.Random(21)
        values = [0, 1, 2, GROUP_P - 1, GROUP_P, GROUP_P + 2]
        values += [rng.randrange(GROUP_P) for _ in range(50)]
        for a in values:
            euler = pow(a, GROUP_Q, GROUP_P)
            assert jacobi(a, GROUP_P) == (-1 if euler == GROUP_P - 1 else euler)

    def test_composite_moduli(self):
        def legendre(a, prime):
            euler = pow(a, (prime - 1) // 2, prime)
            return -1 if euler == prime - 1 else euler

        for n, factors in ((9, (3, 3)), (15, (3, 5)), (105, (3, 5, 7)), (1, ())):
            for a in range(2 * n + 1):
                expected = 1
                for prime in factors:
                    expected *= legendre(a, prime)
                assert jacobi(a, n) == expected


# ---------------------------------------------------------------------------
# Pinned bytes (recorded at the parent of the fixed-base rewrite)
# ---------------------------------------------------------------------------

ALICE_PUBLIC_HEX = (
    "b23434354a87ee0be84dde8c03e2a2e5796caf2943e42e459fcfda55e0b3a515"
    "955f88585a62998718a73a5d80e534ad4fc1b5f7d35db726ae5bc6b22eacff3e"
    "a433c4c015511f0ede6df627dd554dbd6cc275e4f17e5055fb4dc346d67e31e5"
    "e8b8adb38ee30f9ce72841d0d2b23b8c2ebf8d8c1f3d348d495dbce216688749"
    "a831e322dd8228dd82ca4815026ff16d5916a92ae2ca5813b08a386732de5a9b"
    "d394e2b62e7f6bfcc4ec7fbb67887727ed271d76e3cf2d8aaa4d15a2a76c367f"
)
ALICE_ADDRESS_HEX = "8b5a2a364cf2e06272845bd8ff83e888b107b9530c08468e062e356d11e96a2f"
#: ``alice`` signing ``b"zendoo"``: the non-zero prefixes of the two
#: 192-byte little-endian scalars (``e`` is 64 bytes, ``s`` 128).
ALICE_SIG_E_HEX = (
    "40eb2c12eb3cec3f50a1e161c2099d8414d7242992a6fd9d2ea3cca5d181cfbc"
    "645580e18c92b34717ec730f1a5474ae81973da1c947418849e0882b32f4bd8c"
)
ALICE_SIG_S_HEX = (
    "e43cb9070ae847f1a8695313a43f39a727905cca9585ab5aa434a6087d67de8b"
    "eaa74ad5eabf7e190335c72ef8af7d3a0bcaad9941abe314d9f0301d1f032071"
    "b43604a37c1486f1436e71ae448c148335003c6b4f7b76f56c5cc0351a405aa4"
    "f217f4fa6f7085369589cac757ae0eeda512fb47df2ce463887801eb2acf4002"
)
ALICE_SIG_BYTES = bytes.fromhex(ALICE_SIG_E_HEX).ljust(192, b"\x00") + bytes.fromhex(
    ALICE_SIG_S_HEX
).ljust(192, b"\x00")
#: sha256 over public key, address and eight signatures of six seeds.
BATCH_SHA256 = "4003aa9e45f3b730898f2174306569842f950c8d0176318df8176e9ee26e9515"


def pinned_utxo(kp, amount, tag):
    return Utxo(
        addr=address_to_field(kp.address),
        amount=amount,
        nonce=derive_nonce(b"pin", bytes([tag])),
    )


class TestPinnedBytes:
    def test_alice_vector(self):
        alice = KeyPair.from_seed("alice")
        assert alice.public.to_bytes().hex() == ALICE_PUBLIC_HEX
        assert alice.private.public_key() == alice.public
        assert address_of(alice.public).hex() == alice.address.hex() == ALICE_ADDRESS_HEX
        assert alice.sign(b"zendoo").to_bytes() == ALICE_SIG_BYTES
        assert alice.private.sign(b"zendoo").to_bytes() == ALICE_SIG_BYTES

    def test_batch_digest(self):
        h = hashlib.sha256()
        for seed in ("alice", "bob", "miner", "pinned/0", "pinned/1", "pinned/2"):
            kp = KeyPair.from_seed(seed)
            h.update(kp.public.to_bytes())
            h.update(kp.address)
            h.update(address_of(kp.private.public_key()))
            for message in (b"", b"m", b"x" * 1000, seed.encode()):
                h.update(kp.sign(message).to_bytes())
                h.update(kp.private.sign(message).to_bytes())
        assert h.hexdigest() == BATCH_SHA256


# ---------------------------------------------------------------------------
# Other processes: the table is per process and starts empty
# ---------------------------------------------------------------------------


class TestOtherProcesses:
    def test_fresh_process_first_call(self):
        """Importing builds nothing; the very first verify of a process
        grows the table it needs and returns the right verdicts."""
        script = (
            "from repro.crypto import signatures as S\n"
            "assert len(S._G_POWERS) == 0 and not S._key_combs\n"
            f"pk = S.PublicKey.from_bytes(bytes.fromhex({ALICE_PUBLIC_HEX!r}))\n"
            f"sig = S.Signature.from_bytes(bytes.fromhex({ALICE_SIG_BYTES.hex()!r}))\n"
            "assert pk.verify(b'zendoo', sig)\n"
            "assert len(S._G_POWERS) > 0 and list(S._key_combs) == [pk.point]\n"
            "assert not pk.verify(b'zendoo!', sig)\n"
            "assert not pk.verify(b'zendoo', S.Signature(e=sig.e, s=S.GROUP_Q - 1))\n"
            "print('ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=str(REPO_ROOT),
            check=True,
        )
        assert out.stdout.strip() == "ok"

    def test_pool_worker_verifies_unseen_signatures(self):
        """Base proofs made by a prover that verifies the payment signatures
        during synthesis on cold tables and with no memoized verdicts, as a
        fresh process would, equal the warm ones."""
        payer = KeyPair.from_seed("pool-worker/payer")
        state = LatusState(8)
        current = pinned_utxo(payer, 1000, 1)
        state.mst.add(current)
        txs = []
        for tag in (2, 3):
            nxt = pinned_utxo(payer, 1000, tag)
            txs.append(sign_payment([(current, payer)], [nxt]))
            current = nxt
        composer = RecursiveComposer(LatusTransitionSystem())
        serial, final_serial, _ = composer.prove_sequence(state.copy(), txs)
        clear_verify_cache()
        cold, final_cold, _ = composer.prove_sequence(state.copy(), txs)
        assert cold.proof.data == serial.proof.data
        assert final_cold.digest() == final_serial.digest()
