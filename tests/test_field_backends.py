"""Cross-backend parity suite for the pluggable field backends (PR 6).

The contract of :mod:`repro.crypto.backend` is absolute: backends trade
speed, never results.  Every test here pins some slice of that contract —
randomized scalar-op equivalence, batched-permutation parity across the
NumPy limb-engine threshold, byte-identical Merkle roots / MST digests /
epoch proofs under every available backend, identical *rejection* of bad
witnesses under the batched evaluation path, and the graceful fallback
that must absorb a missing optional dependency (``gmpy2``) instead of
breaking proving.

Backends that cannot be constructed in this environment (no ``gmpy2``
wheel) are skipped per-test, so the same file passes locally and under the
CI optional-deps matrix leg that does install the wheel.
"""

from __future__ import annotations

import random
import subprocess
import sys
import warnings

import pytest

from repro.crypto import backend, mimc, signatures
from repro.crypto.field import (
    MODULUS,
    add,
    inv,
    mul,
    neg,
    pow5,
    sub,
)
from repro.crypto.fixed_merkle import FixedMerkleTree
from repro.crypto.keys import KeyPair
from repro.errors import FieldError, UnsatisfiedConstraint
from repro.latus.mst import MerkleStateTree
from repro.latus.proofs import LatusTransitionSystem
from repro.latus.state import LatusState
from repro.latus.transactions import sign_payment
from repro.latus.utxo import Utxo, address_to_field, derive_nonce
from repro.snark import proving
from repro.snark.recursive import RecursiveComposer
from tests.test_witness_checker import base_job, payment_job, tampered_leaf

ALL_BACKENDS = backend.backend_names()
AVAILABLE = [name for name in ALL_BACKENDS if backend.is_available(name)]

requires = pytest.mark.parametrize(
    "backend_name",
    [
        pytest.param(
            name,
            marks=()
            if backend.is_available(name)
            else pytest.mark.skip(reason=f"backend '{name}' unavailable"),
        )
        for name in ALL_BACKENDS
    ],
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Backend comparisons must not leak cache state between tests."""
    mimc.clear_cache()
    yield
    mimc.clear_cache()
    backend.set_backend("python-int")


def _rng():
    return random.Random("field-backend-parity")


# ---------------------------------------------------------------------------
# Scalar-op equivalence
# ---------------------------------------------------------------------------


class TestScalarOps:
    @requires
    def test_randomized_op_equivalence(self, backend_name):
        """Every backend computes the reference field, element for element."""
        rng = _rng()
        b = backend._instance(backend_name)
        for _ in range(200):
            x = rng.randrange(MODULUS)
            y = rng.randrange(MODULUS)
            assert b.add(x, y) == add(x, y)
            assert b.sub(x, y) == sub(x, y)
            assert b.mul(x, y) == mul(x, y)
            assert b.neg(x) == neg(x)
            assert b.pow5(x) == pow5(x)
            if x:
                assert b.inv(x) == inv(x)
        # edge values: 0, 1, p-1
        for x in (0, 1, MODULUS - 1):
            for y in (0, 1, MODULUS - 1):
                assert b.add(x, y) == add(x, y)
                assert b.mul(x, y) == mul(x, y)

    @requires
    def test_inverse_of_zero_raises(self, backend_name):
        b = backend._instance(backend_name)
        with pytest.raises(FieldError):
            b.inv(0)

    @requires
    def test_powmod_arbitrary_modulus(self, backend_name):
        """powmod must work beyond the SNARK field (the Schnorr group)."""
        rng = _rng()
        b = backend._instance(backend_name)
        for _ in range(20):
            base = rng.randrange(1, 1 << 256)
            exp = rng.randrange(1 << 128)
            mod = rng.randrange(3, 1 << 200)
            assert b.powmod(base, exp, mod) == pow(base, exp, mod)

    @requires
    def test_powmod_negative_exponent_inverts(self, backend_name):
        """Schnorr verification raises the key to ``-e``: every backend must
        read a negative exponent as a power of the modular inverse."""
        rng = _rng()
        b = backend._instance(backend_name)
        for _ in range(5):
            base = rng.randrange(2, signatures.GROUP_P)
            exp = rng.getrandbits(512)
            expected = pow(base, -exp, signatures.GROUP_P)
            assert b.powmod(base, -exp, signatures.GROUP_P) == expected
            assert expected * pow(base, exp, signatures.GROUP_P) % signatures.GROUP_P == 1

    @requires
    def test_fp_helpers_dispatch_to_active_backend(self, backend_name):
        """The ``fp_*`` wrappers are gone (no caller was left in ``src/``);
        what they did is ``backend.active().<op>`` under a scoped backend."""
        rng = _rng()
        with backend.use_backend(backend_name) as selected:
            b = backend.active()
            assert b is selected and b.name == backend_name
            x = rng.randrange(1, MODULUS)
            y = rng.randrange(MODULUS)
            assert b.add(x, y) == add(x, y)
            assert b.sub(x, y) == sub(x, y)
            assert b.mul(x, y) == mul(x, y)
            assert b.neg(x) == neg(x)
            assert b.inv(x) == inv(x)
            assert b.pow5(x) == pow5(x)
            assert b.powmod(x, 65537, 2**127 - 1) == pow(x, 65537, 2**127 - 1)


# ---------------------------------------------------------------------------
# Batched permutations
# ---------------------------------------------------------------------------


class TestBatchedPermutations:
    @requires
    def test_permutation_batch_parity(self, backend_name):
        rng = _rng()
        b = backend._instance(backend_name)
        xs = [rng.randrange(MODULUS) for _ in range(33)]
        ks = [rng.randrange(MODULUS) for _ in range(33)]
        expected = [mimc._permutation_compiled(x, k) for x, k in zip(xs, ks)]
        assert b.mimc_permutations(xs, ks) == expected

    def test_limb_engine_parity_across_threshold(self):
        """The NumPy limb engine and the fused int loop agree exactly; the
        dispatch threshold is invisible in the results."""
        b = backend.BatchedBackend()
        if b._limb_engine is None:
            pytest.skip("numpy unavailable")
        rng = _rng()
        n = backend.NUMPY_MIN_BATCH + 7
        xs = [rng.randrange(MODULUS) for _ in range(n)]
        ks = [rng.randrange(MODULUS) for _ in range(n)]
        # large batch goes through the limb engine...
        via_limbs = b.mimc_permutations(xs, ks)
        # ...the same values in small slices go through the fused loop
        via_loop = []
        for i in range(0, n, 64):
            via_loop.extend(b.mimc_permutations(xs[i : i + 64], ks[i : i + 64]))
        assert via_limbs == via_loop
        assert via_limbs[:3] == [
            mimc._permutation_compiled(x, k) for x, k in zip(xs[:3], ks[:3])
        ]

    def test_limb_engine_edge_values(self):
        b = backend.BatchedBackend()
        if b._limb_engine is None:
            pytest.skip("numpy unavailable")
        edges = [0, 1, 2, 19, MODULUS - 1, MODULUS - 19, (1 << 254), (1 << 255) - 20]
        xs = [x % MODULUS for x in edges]
        ks = list(reversed(xs))
        assert b._limb_engine.permutations(xs, ks) == [
            mimc._permutation_compiled(x, k) for x, k in zip(xs, ks)
        ]

    def test_reduce_sum_overwide_limb0_regression(self):
        """Regression: _reduce_sum's final fold can push limb 0 to 2**26
        exactly (carry out of limb 9 folds +608 into a nearly-full limb 0,
        reachable because the permutation's r + k input can reach 2**260).
        _to_ints must *add* that over-wide limb into the running total; a
        bitwise OR silently drops the overlapping bit and returns a wrong
        field element."""
        b = backend.BatchedBackend()
        if b._limb_engine is None:
            pytest.skip("numpy unavailable")
        engine = b._limb_engine
        np = engine._np
        limbs = np.zeros((1, backend._LIMBS), dtype=np.int64)
        limbs[0, 0] = (1 << backend._LIMB_BITS) - backend._FOLD
        limbs[0, 1] = 1  # makes bit 26 of the shifted total collide with limb 0
        limbs[0, backend._LIMBS - 1] = 1 << backend._LIMB_BITS
        expected = sum(
            int(v) << (backend._LIMB_BITS * i) for i, v in enumerate(limbs[0].tolist())
        ) % MODULUS
        reduced = engine._reduce_sum(limbs)
        # the fold leaves limb 0 over-wide: exactly 2**26, overlapping bit 26
        assert int(reduced[0, 0]) == 1 << backend._LIMB_BITS
        assert engine._to_ints(reduced) == [expected]

    @requires
    def test_compress_many_matches_serial_loop(self, backend_name):
        rng = _rng()
        pairs = [(rng.randrange(MODULUS), rng.randrange(MODULUS)) for _ in range(40)]
        pairs += pairs[:10]  # duplicates must cost one permutation, not two
        expected = [mimc.mimc_compress(left, right) for left, right in pairs]
        mimc.clear_cache()
        with backend.use_backend(backend_name):
            assert mimc.mimc_compress_many(pairs) == expected

    def test_compress_many_dedupes_and_counts(self):
        from repro import observability

        perms = observability.registry().counter("repro_mimc_permutations_total")
        before = perms.value()
        pairs = [(1, 2), (3, 4), (1, 2), (3, 4), (1, 2)]
        out = mimc.mimc_compress_many(pairs)
        assert out[0] == out[2] == out[4] and out[1] == out[3]
        # 2 distinct pairs -> exactly 2 permutations despite 5 requests
        assert perms.value() - before == 2
        # and a second call is served entirely from the compress cache
        mid = perms.value()
        assert mimc.mimc_compress_many(pairs) == out
        assert perms.value() == mid


# ---------------------------------------------------------------------------
# Byte-identical structures: Merkle roots, MST digests, epoch proofs
# ---------------------------------------------------------------------------


def _merkle_root(backend_name: str) -> int:
    rng = _rng()
    with backend.use_backend(backend_name):
        mimc.clear_cache()
        tree = FixedMerkleTree(10)
        tree.set_leaves({i: rng.randrange(MODULUS) for i in range(0, 1024, 3)})
        tree.set_leaves([(5, 77), (6, 0), (900, rng.randrange(MODULUS))])
        return tree.root


def _mst_digest(backend_name: str) -> int:
    rng = _rng()
    with backend.use_backend(backend_name):
        mimc.clear_cache()
        mst = MerkleStateTree(depth=16)
        utxos, taken = [], set()
        while len(utxos) < 64:
            u = Utxo(
                addr=rng.randrange(MODULUS),
                amount=rng.randrange(1, 10_000),
                nonce=rng.randrange(MODULUS),
            )
            position = mst.position_of(u)
            if position in taken:  # rare birthday collision in a small tree
                continue
            taken.add(position)
            utxos.append(u)
            mst.add(u)
        for u in utxos[:16]:
            mst.remove(u)
        return mst.root


def _epoch_proof(backend_name: str):
    keypair = KeyPair.from_seed("backend-parity")
    with backend.use_backend(backend_name):
        mimc.clear_cache()
        system = LatusTransitionSystem()
        composer = RecursiveComposer(system)
        state = LatusState(8)
        current = Utxo(
            addr=address_to_field(keypair.address),
            amount=500,
            nonce=derive_nonce(b"parity-mint", (0).to_bytes(8, "little")),
        )
        state.mst.add(current)
        proofs = []
        for i in range(3):
            nxt = Utxo(
                addr=address_to_field(keypair.address),
                amount=500,
                nonce=derive_nonce(b"parity-out", i.to_bytes(8, "little")),
            )
            tx = sign_payment([(current, keypair)], [nxt])
            next_state = system.apply(tx, state)
            public = (system.digest(state), system.digest(next_state))
            result = proving.prove_with_stats(composer._base_pk, public, (state, tx))
            proofs.append((result.proof.data, public, result.stats))
            state, current = next_state, nxt
        return proofs


class TestByteIdenticalStructures:
    reference: dict = {}

    @requires
    def test_merkle_roots_identical(self, backend_name):
        root = _merkle_root(backend_name)
        assert root == _merkle_root("python-int")

    @requires
    def test_mst_digests_identical(self, backend_name):
        assert _mst_digest(backend_name) == _mst_digest("python-int")

    @requires
    def test_epoch_proofs_identical(self, backend_name):
        assert _epoch_proof(backend_name) == _epoch_proof("python-int")


# ---------------------------------------------------------------------------
# Rejection parity under the batched backend
# ---------------------------------------------------------------------------


class TestBatchedRejectionParity:
    def test_corrupted_leaf_rejected_identically(self):
        """Proving under the batched backend still catches an R1CS violation
        — an output whose cached leaf value was tampered with — with the
        reference builder's exact error (the oracle of
        ``tests/test_witness_checker.py``, run under the default backend)."""
        state, tx = payment_job()
        pk, public, witness = base_job(state, tampered_leaf(tx, "outputs"))
        with pytest.raises(UnsatisfiedConstraint, match="utxo/leaf") as reference:
            pk.circuit.check(public, witness)
        with backend.use_backend("batched"):
            with pytest.raises(UnsatisfiedConstraint) as batched:
                proving.prove_with_stats(pk, public, witness)
        assert str(batched.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Selection, fallback, environment
# ---------------------------------------------------------------------------


class TestSelection:
    def test_default_is_python_int(self):
        assert backend.active().name == "python-int"

    def test_use_backend_restores_previous(self):
        original = backend.active().name
        with backend.use_backend("batched") as b:
            assert b.name == "batched"
            assert backend.active() is b
        assert backend.active().name == original

    def test_unknown_backend_strict_raises(self):
        with pytest.raises(FieldError, match="unknown field backend"):
            backend.set_backend("no-such-backend")

    def test_unknown_backend_lenient_falls_back_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            b = backend.set_backend("no-such-backend", strict=False)
        assert b.name == "python-int"
        assert any("unknown field backend" in str(w.message) for w in caught)

    def test_missing_gmpy2_graceful_fallback(self, monkeypatch):
        """Selecting gmpy2 without the wheel degrades instead of failing."""
        monkeypatch.delitem(backend._INSTANCES, "gmpy2", raising=False)
        monkeypatch.setitem(
            backend._BACKEND_TYPES, "gmpy2", _AlwaysImportError
        )
        with pytest.raises(FieldError, match="not available"):
            backend.set_backend("gmpy2", strict=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            b = backend.set_backend("gmpy2", strict=False)
        assert b.name == "python-int"
        assert any("unavailable" in str(w.message) for w in caught)

    def test_env_selection(self):
        """REPRO_FIELD_BACKEND picks the import-time backend; bogus values
        degrade to python-int instead of breaking import."""
        script = (
            "import warnings; warnings.simplefilter('ignore'); "
            "from repro.crypto import backend; print(backend.active().name)"
        )
        for env_value, expected in [("batched", "batched"), ("bogus", "python-int")]:
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "REPRO_FIELD_BACKEND": env_value},
                cwd=str(backend.__file__).rsplit("/src/", 1)[0],
                check=True,
            )
            assert out.stdout.strip() == expected

    def test_available_backends_shape(self):
        availability = backend.available_backends()
        assert set(availability) == set(ALL_BACKENDS)
        assert availability["python-int"] is True
        assert availability["batched"] is True  # pure-python fallback inside


class _AlwaysImportError:
    def __init__(self) -> None:
        raise ImportError("gmpy2 wheel not installed (test stand-in)")
