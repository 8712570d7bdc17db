"""Swappable field-arithmetic backends for the proving hot path.

Everything in this reproduction bottoms out in modular arithmetic over
``p = 2**255 - 19`` (:mod:`repro.crypto.field`).  Memoized MiMC, process-pool
proving and value-level witness checking removed the orchestration overhead
*around* that arithmetic; what remains is the raw cost of executing it one
Python ``int`` at a time.  This module makes the arithmetic
layer pluggable:

* ``python-int`` — the reference backend: plain CPython big-int arithmetic,
  always available, byte-for-byte the library's historical behaviour.  The
  default.
* ``gmpy2`` — the same scalar operations on ``gmpy2.mpz``; a genuine win for
  the large modular exponentiations (field inverses).  Optional: when the
  wheel is not installed, selecting it falls back to ``python-int`` with a
  warning and a ``repro_field_backend_fallbacks_total`` tick, never failing.
* ``batched`` — identical scalar ops to ``python-int`` plus *array-program*
  execution of shape-identical work: an exec-compiled fused loop for batched
  MiMC permutations (round constants baked into the generated source, the
  same technique as the unrolled permutation) and, for large leaf batches,
  a NumPy limb-vectorized engine that executes one round across the whole
  batch at once.

Every backend computes the *same field*: roots, commitments, digests and
proofs are byte-identical across backends (enforced by
``tests/test_field_backends.py`` and the ``BENCH_pr6.json`` smoke gate).
Backends trade only speed, never results.

Selection: ``REPRO_FIELD_BACKEND`` in the environment at import time, or
:func:`set_backend` / the :func:`use_backend` context manager at runtime.
:class:`~repro.snark.pool.ProverPool` ships the parent's active backend name
to worker processes through the executor initializer, so pooled proving runs
under the same backend as the parent.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro import observability
from repro.crypto import field
from repro.crypto.field import MODULUS
from repro.crypto.mimc import ROUND_CONSTANTS, _permutation_compiled, _round_lines
from repro.errors import FieldError

_REGISTRY = observability.registry()
_SELECTS = _REGISTRY.counter(
    "repro_field_backend_selects_total",
    "field-backend activations (set_backend / use_backend / env)",
    labelnames=("backend",),
)
_FALLBACKS = _REGISTRY.counter(
    "repro_field_backend_fallbacks_total",
    "backend selections that fell back to python-int (dependency missing)",
).labels()
_BATCH_CALLS = _REGISTRY.counter(
    "repro_field_batch_calls_total",
    "batched permutation calls dispatched to the active backend",
).labels()
_BATCH_ELEMENTS = _REGISTRY.counter(
    "repro_field_batch_elements_total",
    "field elements processed through batched permutation calls",
).labels()


class FieldBackend:
    """One implementation of the field-arithmetic layer.

    Scalar operations take and return canonical field ints; the batch
    operation maps parallel input lists to an output list.
    """

    #: Registry name (also the ``REPRO_FIELD_BACKEND`` value selecting it).
    name: str = ""

    # -- scalar ops ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return field.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return field.sub(a, b)

    def mul(self, a: int, b: int) -> int:
        return field.mul(a, b)

    def neg(self, a: int) -> int:
        return field.neg(a)

    def inv(self, a: int) -> int:
        return field.inv(a)

    def pow5(self, a: int) -> int:
        return field.pow5(a)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """General modular exponentiation under an arbitrary modulus."""
        return pow(base, exponent, modulus)

    # -- batch ops -----------------------------------------------------------

    def mimc_permutations(self, xs: Sequence[int], ks: Sequence[int]) -> list[int]:
        """Keyed MiMC permutation applied position-wise over two lists.

        Inputs must be canonical field ints; the reference implementation
        loops the compiled scalar permutation.  Subclasses may batch.
        """
        permutation = _permutation_compiled
        return [permutation(x, k) for x, k in zip(xs, ks)]


class PythonIntBackend(FieldBackend):
    """The reference backend: plain CPython integers, always available."""

    name = "python-int"


class Gmpy2Backend(FieldBackend):
    """Scalar arithmetic on ``gmpy2.mpz`` (optional dependency).

    The compiled MiMC round body is re-generated over ``mpz`` values with the
    round constants pre-converted, so the permutation pays one int->mpz
    conversion per call instead of one per round.  The big wins are
    :meth:`inv` and :meth:`powmod`.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2  # raises ImportError when the wheel is absent

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self._modulus = gmpy2.mpz(MODULUS)
        self._constants = tuple(gmpy2.mpz(c) for c in ROUND_CONSTANTS)

    def mul(self, a: int, b: int) -> int:
        return int(self._mpz(a) * b % self._modulus)

    def inv(self, a: int) -> int:
        if a % MODULUS == 0:
            raise FieldError("division by zero in field inverse")
        return int(self._gmpy2.invert(self._mpz(a), self._modulus))

    def pow5(self, a: int) -> int:
        m = self._modulus
        a = self._mpz(a)
        a2 = a * a % m
        a4 = a2 * a2 % m
        return int(a4 * a % m)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def mimc_permutations(self, xs: Sequence[int], ks: Sequence[int]) -> list[int]:
        m = self._modulus
        mpz = self._mpz
        constants = self._constants
        out = []
        for x, k in zip(xs, ks):
            r = mpz(x)
            k = mpz(k)
            for c in constants:
                t = (r + k + c) % m
                t2 = t * t % m
                r = t2 * t2 * t % m
            out.append(int((r + k) % m))
        return out


# -- the batched (array-program) backend ----------------------------------------

#: Batch size at which the NumPy limb engine beats the fused int loop.  Below
#: it, per-call NumPy dispatch overhead (~1 µs per vector op, ~33k vector ops
#: per batch) dominates; above it, the fixed cost amortizes across the batch.
NUMPY_MIN_BATCH: int = 1024

#: Block size the limb engine processes at a time.  One permutation keeps
#: several ``(n, 20)``-limb int64 temporaries alive per vector op; past a few
#: thousand rows they fall out of L2 and throughput drops ~4x (measured: ~7.3k
#: permutations/s at 4096 rows vs ~1.7k/s at 65536).  Large batches are
#: therefore sliced into blocks of this many rows.
NUMPY_BLOCK_ROWS: int = 4096

_LIMB_BITS = 26
_LIMBS = 10  # 10 * 26 = 260 bits >= 255
_LIMB_MASK = (1 << _LIMB_BITS) - 1
#: 2**260 == 2**255 * 32 ≡ 19 * 32 (mod p): the fold factor for limb i+10.
_FOLD = 19 * 32


def _compile_batch_permutation(constants: Sequence[int], modulus: int):
    """Exec-compile the fused batch loop: outer loop over elements, inner
    rounds fully unrolled with the constants baked in as literals.

    The round body is ``mimc._round_lines``, the scalar permutation's;
    batching here removes the per-element Python function call and
    result-list append bookkeeping from the caller.
    """
    lines = [
        f"def _batch(xs, ks, _M={modulus}):",
        "    out = []",
        "    a = out.append",
        "    for r, k in zip(xs, ks):",
    ]
    lines += _round_lines(constants, modulus, "        ")
    lines.append("        a((r + k) % _M)")
    lines.append("    return out")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<field-batch-permutation>", "exec"), namespace)
    return namespace["_batch"]


class _LimbEngine:
    """NumPy limb-vectorized MiMC permutation over large batches.

    Elements are 10 little-endian limbs of 26 bits in ``int64`` arrays of
    shape ``(n, 10)``; one round executes across the whole batch at once.
    Schoolbook multiplication keeps every column sum below ``2**60`` (limbs
    stay under ``2**28`` between reductions, at most 10 products of
    ``2**56`` per column), and reduction folds limb ``i+10`` into limb ``i``
    via ``2**260 ≡ 19 * 32 (mod p)`` after a carry pass has normalized the
    columns, so nothing ever overflows ``int64``.  Limbs are kept
    *non-canonical* between rounds (congruent mod p, value below ``2**260``);
    the final conversion reduces canonically.
    """

    def __init__(self, np_module) -> None:
        self._np = np_module
        self._constants = np_module.array(
            [self._int_to_limbs(c) for c in ROUND_CONSTANTS], dtype=np_module.int64
        )

    @staticmethod
    def _int_to_limbs(value: int) -> list[int]:
        return [(value >> (_LIMB_BITS * i)) & _LIMB_MASK for i in range(_LIMBS)]

    def _to_array(self, values: Sequence[int]):
        np = self._np
        return np.array([self._int_to_limbs(v) for v in values], dtype=np.int64)

    def _to_ints(self, limbs) -> list[int]:
        # Addition, not bitwise OR: limbs may be non-canonical here (limb 0
        # can exceed 2**26 after _reduce_sum's final fold), so overlapping
        # bits must carry into the running total rather than be clobbered.
        out = []
        for row in limbs.tolist():
            total = 0
            for i in range(_LIMBS - 1, -1, -1):
                total = (total << _LIMB_BITS) + row[i]
            out.append(total % MODULUS)
        return out

    def _mul(self, a, b):
        """Schoolbook product + reduction; inputs limbs < 2**28."""
        np = self._np
        n = a.shape[0]
        cols = np.zeros((n, 2 * _LIMBS - 1), dtype=np.int64)
        for k in range(2 * _LIMBS - 1):
            lo = max(0, k - (_LIMBS - 1))
            hi = min(_LIMBS - 1, k)
            acc = cols[:, k]
            for i in range(lo, hi + 1):
                acc += a[:, i] * b[:, k - i]
        return self._reduce(cols)

    def _reduce(self, cols):
        """Carry-normalize 19 columns, fold the high half, carry again."""
        np = self._np
        n = cols.shape[0]
        carry = np.zeros(n, dtype=np.int64)
        for k in range(2 * _LIMBS - 1):
            v = cols[:, k] + carry
            cols[:, k] = v & _LIMB_MASK
            carry = v >> _LIMB_BITS
        # carry now occupies column 19; every column < 2**26
        out = cols[:, :_LIMBS].copy()
        out[:, : _LIMBS - 1] += _FOLD * cols[:, _LIMBS:]
        out[:, _LIMBS - 1] += _FOLD * carry
        carry = np.zeros(n, dtype=np.int64)
        for k in range(_LIMBS):
            v = out[:, k] + carry
            out[:, k] = v & _LIMB_MASK
            carry = v >> _LIMB_BITS
        # residual carry is bits >= 2**260: fold once more into limb 0;
        # the result may leave limb 0 slightly above 2**26, which the
        # multiplication bound (limbs < 2**28) tolerates
        out[:, 0] += _FOLD * carry
        return out

    def permutations(self, xs: Sequence[int], ks: Sequence[int]) -> list[int]:
        r = self._to_array(xs)
        k = self._to_array(ks)
        for limbs in self._constants:
            t = r + k + limbs  # limbs < ~2**28: fine to multiply unreduced
            t2 = self._mul(t, t)
            t4 = self._mul(t2, t2)
            r = self._mul(t4, t)
        return self._to_ints(self._reduce_sum(r + k))

    def _reduce_sum(self, limbs):
        """Normalize an addition result back below 2**26 per limb."""
        np = self._np
        n = limbs.shape[0]
        carry = np.zeros(n, dtype=np.int64)
        for k in range(_LIMBS):
            v = limbs[:, k] + carry
            limbs[:, k] = v & _LIMB_MASK
            carry = v >> _LIMB_BITS
        limbs[:, 0] += _FOLD * carry
        return limbs


class BatchedBackend(PythonIntBackend):
    """Array-program execution of shape-identical field work.

    Scalar operations are inherited from the reference backend (CPython
    big-ints are already optimal one element at a time); batches dispatch to
    an exec-compiled fused loop, or to the NumPy limb engine above
    :data:`NUMPY_MIN_BATCH` elements when NumPy is importable.
    """

    name = "batched"

    def __init__(self) -> None:
        self._batch = _compile_batch_permutation(ROUND_CONSTANTS, MODULUS)
        self._limb_engine = None
        try:
            import numpy
        except ImportError:
            numpy = None
        if numpy is not None:
            self._limb_engine = _LimbEngine(numpy)

    def mimc_permutations(self, xs: Sequence[int], ks: Sequence[int]) -> list[int]:
        if self._limb_engine is not None and len(xs) >= NUMPY_MIN_BATCH:
            if len(xs) <= NUMPY_BLOCK_ROWS:
                return self._limb_engine.permutations(xs, ks)
            # cache-blocked: slicing keeps the per-op limb temporaries hot
            out: list[int] = []
            for lo in range(0, len(xs), NUMPY_BLOCK_ROWS):
                hi = lo + NUMPY_BLOCK_ROWS
                out.extend(self._limb_engine.permutations(xs[lo:hi], ks[lo:hi]))
            return out
        return self._batch(xs, ks)


# -- registry and selection ------------------------------------------------------

#: Constructors, not instances: unavailable optional backends must not break
#: import, and workers construct their own (compiled code does not pickle).
_BACKEND_TYPES: dict[str, type[FieldBackend]] = {
    PythonIntBackend.name: PythonIntBackend,
    Gmpy2Backend.name: Gmpy2Backend,
    BatchedBackend.name: BatchedBackend,
}

_INSTANCES: dict[str, FieldBackend] = {}
_active: FieldBackend | None = None


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(_BACKEND_TYPES)


def is_available(name: str) -> bool:
    """Whether ``name`` can actually be constructed in this process."""
    try:
        _instance(name)
    except (KeyError, ImportError):
        return False
    return True


def available_backends() -> dict[str, bool]:
    """Name -> availability map (the diagnostics/CI surface)."""
    return {name: is_available(name) for name in _BACKEND_TYPES}


def _instance(name: str) -> FieldBackend:
    instance = _INSTANCES.get(name)
    if instance is None:
        backend_type = _BACKEND_TYPES.get(name)
        if backend_type is None:
            raise KeyError(
                f"unknown field backend '{name}' (known: {', '.join(_BACKEND_TYPES)})"
            )
        instance = backend_type()  # may raise ImportError (optional dependency)
        _INSTANCES[name] = instance
    return instance


def _resolve(name: str, strict: bool) -> FieldBackend:
    try:
        return _instance(name)
    except KeyError:
        if strict:
            raise FieldError(
                f"unknown field backend '{name}' "
                f"(known: {', '.join(_BACKEND_TYPES)})"
            ) from None
        reason = f"unknown field backend '{name}'"
    except ImportError as exc:
        if strict:
            raise FieldError(
                f"field backend '{name}' is not available: {exc}"
            ) from exc
        reason = f"field backend '{name}' is unavailable ({exc})"
    _FALLBACKS.inc()
    warnings.warn(
        f"{reason}; falling back to '{PythonIntBackend.name}'",
        RuntimeWarning,
        stacklevel=3,
    )
    return _instance(PythonIntBackend.name)


def active() -> FieldBackend:
    """The backend every dispatched field operation currently uses."""
    assert _active is not None
    return _active


def batch_permutations(xs: Sequence[int], ks: Sequence[int]) -> list[int]:
    """Dispatch one batched-permutation call to the active backend, counted.

    The ``repro_field_batch_*`` counters make batching observable: a healthy
    batched workload shows few calls with many elements each.
    """
    _BATCH_CALLS.inc()
    _BATCH_ELEMENTS.inc(len(xs))
    return active().mimc_permutations(xs, ks)


def set_backend(name: str, strict: bool = True) -> FieldBackend:
    """Activate a backend process-wide; returns the activated instance.

    ``strict=False`` degrades to ``python-int`` (with a warning and a
    ``repro_field_backend_fallbacks_total`` tick) when the requested backend
    cannot be constructed — the behaviour of env-var and pool-worker
    selection, where a missing optional wheel must never break proving.

    Selection is process-wide mutable state and assumes single-threaded use:
    concurrency in this library is process-based (:class:`ProverPool` workers
    re-select in their initializer), so no lock guards ``_active``.  Do not
    toggle backends from multiple threads or nest concurrent
    :func:`use_backend` scopes across threads — the last writer wins.
    """
    global _active
    backend = _resolve(name, strict)
    _active = backend
    _SELECTS.labels(backend=backend.name).inc()
    return backend


@contextmanager
def use_backend(name: str, strict: bool = True) -> Iterator[FieldBackend]:
    """Scope a backend activation (tests, benchmarks, parity sweeps).

    Restores the previously active backend on exit.  Like
    :func:`set_backend`, this mutates process-wide state and is not
    thread-safe; see that function's note.
    """
    previous = active()
    backend = set_backend(name, strict)
    try:
        yield backend
    finally:
        global _active
        _active = previous
        _SELECTS.labels(backend=previous.name).inc()


#: Environment selection at import: unknown or unavailable names degrade to
#: the reference backend (with a warning) rather than breaking import — CI
#: runs the gmpy2 matrix leg with this variable set whether or not the
#: wheel installed.
set_backend(os.environ.get("REPRO_FIELD_BACKEND", PythonIntBackend.name), strict=False)
