"""Process-pool proving for the recursive composition layer (paper §5.4).

The paper's scalability argument rests on Base proofs being mutually
independent and on the Merge tree admitting level-wise parallelism
("provers can work in parallel", §5.4).  :class:`ProverPool` supplies the
process-level substrate for that claim:

* **Worker-side proving-key cache.**  Proving keys registered before the
  pool starts are pickled once and shipped to every worker through the
  executor initializer; workers cache them by ``circuit_id`` so repeated
  chunks never re-transfer keys.  Keys registered after startup are shipped
  inline with each chunk (the worker still caches them on first sight).
* **One dispatch path.**  A round is a chunk of Base proofs
  (:meth:`~ProverPool.map_prove`), a single Merge
  (:meth:`~ProverPool.submit_prove`, for the merge-tree scheduler) or a
  chunk of verifications (:meth:`~ProverPool.map_verify`).  Every round is
  sent by ``_dispatch`` and resolved by ``_resolve``; chunks hold about
  ``jobs / (workers * 4)`` jobs, so one IPC round amortizes over several.
* **Retry, then degrade.**  A round that fails in transport (an injected
  fault, a payload that does not pickle, a worker that dies) is sent again
  up to ``_RETRIES`` times; then the pool degrades to serial for good and
  runs the round in-process.  A pool resolved to one worker, or whose
  executor cannot start, is serial from the outset.  Results are identical
  either way: the pool is an accelerator, never a correctness dependency.
* **No memo transfer.**  A worker reads its own MiMC memo: a fork copies the
  parent's as it stood when the executor started, and every permutation
  hashed natively after that is recomputed in the worker.

Serialization seconds are measured on the submitting side (the pickling of
job payloads), synthesis seconds on the worker side (the actual
``prove_with_stats`` wall time); both feed the per-stage instrumentation on
:class:`~repro.snark.recursive.CompositionStats`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Sequence
from weakref import WeakKeyDictionary

from repro import observability
from repro.errors import SnarkError, UnsatisfiedConstraint
from repro.snark import proving
from repro.snark.proving import ProveResult, ProvingKey

_REGISTRY = observability.registry()
_POOL_WORKERS = _REGISTRY.gauge(
    "repro_pool_workers",
    "effective worker count of the most recently constructed ProverPool",
).labels()
_POOL_TASKS = _REGISTRY.counter(
    "repro_pool_tasks_total",
    "individual proving jobs dispatched by ProverPool",
).labels()
_POOL_CHUNKS = _REGISTRY.counter(
    "repro_pool_chunks_total",
    "IPC rounds (chunks + single submissions) dispatched by ProverPool",
).labels()
_POOL_FALLBACKS = _REGISTRY.counter(
    "repro_pool_fallbacks_total",
    "times a ProverPool degraded to serial proving",
).labels()
_POOL_RETRIES = _REGISTRY.counter(
    "repro_pool_retries_total",
    "dispatches retried after a worker/dispatch failure",
).labels()
_POOL_INJECTED = _REGISTRY.counter(
    "repro_pool_injected_failures_total",
    "deterministic worker failures injected by a WorkerFaultInjector",
).labels()


class WorkerFaultInjector:
    """Deterministic, seeded worker-failure injection for :class:`ProverPool`.

    The ``n``-th dispatch fails iff a hash of ``(seed, n)`` lands under
    ``failure_rate`` — the same derivation style as the network layer's
    :class:`~repro.network.faults.FaultPlan`, so a seeded chaos run
    reproduces the exact same pool failures every time.  Failures are
    injected on the parent side (the dispatch raises before reaching a
    worker), which exercises the retry/degrade policy without poisoning the
    executor.
    """

    def __init__(self, failure_rate: float, seed: bytes = b"pool-faults") -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise SnarkError(f"failure_rate must be within [0, 1], got {failure_rate}")
        self.failure_rate = failure_rate
        self.seed = seed

    def should_fail(self, index: int) -> bool:
        """Whether the ``index``-th dispatch fails (pure in (seed, index))."""
        from repro.crypto.hashing import hash_bytes

        digest = hash_bytes(
            self.seed + index.to_bytes(8, "little"), b"pool/fault"
        )
        return int.from_bytes(digest[:8], "little") / float(1 << 64) < self.failure_rate

# -- worker side ---------------------------------------------------------------

#: Per-worker proving-key cache, keyed by circuit_id.  Populated by the
#: executor initializer and lazily by inline-shipped keys.
_WORKER_PKS: dict[str, ProvingKey] = {}


def _init_worker(pk_blob: bytes) -> None:
    """Executor initializer: unpickle the parent's registered proving keys."""
    _WORKER_PKS.update(pickle.loads(pk_blob))


def _worker_pk(circuit_id: str, inline_pk: ProvingKey | None) -> ProvingKey:
    pk = _WORKER_PKS.get(circuit_id)
    if pk is None:
        if inline_pk is None:
            raise SnarkError(
                f"worker has no proving key for circuit '{circuit_id}'"
            )
        _WORKER_PKS[circuit_id] = inline_pk
        pk = inline_pk
    return pk


def _prove_chunk(job_blob: bytes) -> list[ProveResult]:
    """Prove a chunk of ``(public_input, witness)`` jobs in one IPC round.

    Routed through :func:`repro.snark.proving.prove_many`, so the whole
    chunk runs under one ``snark/prove_many`` span.
    """
    circuit_id, inline_pk, jobs = pickle.loads(job_blob)
    return proving.prove_many(_worker_pk(circuit_id, inline_pk), jobs)


def _verify_chunk(job_blob: bytes) -> list[bool]:
    """Verify a chunk of ``(vk, public_input, proof)`` triples in one round."""
    return _verify_all(pickle.loads(job_blob))


def _verify_all(jobs: Sequence[tuple]) -> list[bool]:
    """Raw :func:`repro.snark.proving.verify` calls.

    Verdict counters live in the parent process (worker-side registries are
    invisible to it), so the parent counts the gathered results instead.
    """
    return [proving.verify(vk, public, proof) for vk, public, proof in jobs]


# -- parent side ---------------------------------------------------------------


@dataclass
class PoolStats:
    """Cumulative accounting of everything a :class:`ProverPool` dispatched."""

    #: Effective worker count (after CPU clamping); 0 in serial fallback.
    workers: int = 0
    #: Worker count originally requested.
    requested_workers: int = 0
    #: Individual proving jobs dispatched (chunked or not).
    tasks: int = 0
    #: IPC rounds (chunks + single submissions).
    chunks: int = 0
    #: Parent-side time spent pickling job payloads.
    serialization_seconds: float = 0.0
    #: Worker-side time spent inside ``prove_with_stats``.
    synthesis_seconds: float = 0.0
    #: Proof verifications routed through :meth:`ProverPool.map_verify`.
    verifications: int = 0
    #: Dispatches retried after a worker/dispatch failure.
    retries: int = 0
    #: Failures injected by an attached :class:`WorkerFaultInjector`.
    injected_failures: int = 0
    #: Why the pool (if ever) degraded to serial proving.
    fallback_reason: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable snapshot using the shared telemetry field names.

        ``synthesis_seconds`` / ``serialization_seconds`` match the
        identically named fields of
        :meth:`~repro.snark.recursive.CompositionStats.to_dict`, so pool and
        composition accounting line up column-for-column in telemetry.
        """
        return asdict(self)


#: Times one round is sent again after a transport failure before the pool
#: degrades to serial proving for good.
_RETRIES = 2


class ProverPool:
    """A process pool that proves independent statements concurrently.

    ``max_workers=None`` means "one worker per CPU".  By default the
    requested worker count is clamped to the machine's CPU count; a resolved
    count of one (or any failure to stand the pool up) selects the serial
    fallback, which proves in-process with identical results.  Set
    ``clamp_to_cpus=False`` to force real worker processes regardless of the
    CPU count (used by the equivalence tests, which must exercise the
    multiprocess path even on single-core CI machines).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        clamp_to_cpus: bool = True,
        fault_injector: WorkerFaultInjector | None = None,
    ) -> None:
        cpus = os.cpu_count() or 1
        requested = cpus if max_workers is None else max(1, int(max_workers))
        self.workers = min(requested, cpus) if clamp_to_cpus else requested
        #: Optional deterministic failure injection (chaos testing).
        self.fault_injector = fault_injector
        self._dispatch_index = 0
        self.stats = PoolStats(workers=self.workers, requested_workers=requested)
        self._pks: dict[str, ProvingKey] = {}
        self._executor: ProcessPoolExecutor | None = None
        #: Entry point, payload and in-process runner of each unresolved round;
        #: weak, so a round abandoned by a proof failure frees its witness.
        self._rounds: WeakKeyDictionary[Future, tuple] = WeakKeyDictionary()
        self._serial = self.workers <= 1
        if self._serial:
            self.stats.workers = 0
            self.stats.fallback_reason = "resolved worker count <= 1"
        _POOL_WORKERS.set(self.stats.workers)

    # -- lifecycle -------------------------------------------------------------

    @property
    def serial(self) -> bool:
        """True when this pool proves in-process (no worker processes)."""
        return self._serial

    def register(self, pk: ProvingKey) -> None:
        """Make ``pk`` available to workers, keyed by its circuit_id.

        Keys registered before the first job ship once per worker via the
        executor initializer; later registrations ship inline per chunk.
        """
        if self._executor is None and not self._serial:
            self._pks.setdefault(pk.circuit.circuit_id, pk)

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._executor is None and not self._serial:
            try:
                started = time.perf_counter()
                blob = pickle.dumps(self._pks, protocol=pickle.HIGHEST_PROTOCOL)
                self.stats.serialization_seconds += time.perf_counter() - started
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(blob,),
                )
            # The registered keys cross the process boundary here: a key
            # that does not pickle raises PicklingError, AttributeError or
            # TypeError, and a host that cannot start workers an OSError.
            except Exception as exc:
                self._degrade(f"executor start failed: {exc}")
        return self._executor

    def _degrade(self, reason: str) -> None:
        """Permanently fall back to serial proving."""
        self._serial = True
        self.stats.workers = 0
        self.stats.fallback_reason = self.stats.fallback_reason or reason
        _POOL_FALLBACKS.inc()
        _POOL_WORKERS.set(0)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ProverPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(
        self, fn: Callable[[bytes], Any], payload: Any, local: Callable[[], Any]
    ) -> Future:
        """Send one round to the workers; a serial pool runs ``local`` now.

        A transport failure comes back as a failed future for
        :meth:`_resolve`; only the in-process run of a serial pool raises.
        """
        executor = self._ensure_executor()
        future: Future = Future()
        if executor is None:
            future.set_result(local())
            return future
        index = self._dispatch_index
        self._dispatch_index += 1
        try:
            if self.fault_injector is not None and self.fault_injector.should_fail(index):
                self.stats.injected_failures += 1
                _POOL_INJECTED.inc()
                raise SnarkError(f"injected worker failure (dispatch {index})")
            started = time.perf_counter()
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self.stats.serialization_seconds += time.perf_counter() - started
            future = executor.submit(fn, blob)
        # The payload crosses the process boundary here: one that does not
        # pickle raises PicklingError, AttributeError or TypeError, a submit
        # to an executor whose worker died raises BrokenProcessPool, and an
        # injected fault is a SnarkError.
        except Exception as exc:
            future.set_exception(exc)
        else:
            self.stats.chunks += 1
            _POOL_CHUNKS.inc()
        self._rounds[future] = (fn, payload, local)
        return future

    def _resolve(self, future: Future) -> Any:
        """The result of a round from :meth:`_dispatch`.

        A transport failure sends the round again, up to ``_RETRIES`` times;
        then the pool degrades to serial and the round runs in-process, as
        does a round still in flight when another one degraded the pool.
        ``UnsatisfiedConstraint`` is a proof failure and always propagates.
        """
        round_ = self._rounds.pop(future, None)
        if round_ is None:  # a serial pool ran it at dispatch
            return future.result()
        fn, payload, local = round_
        for attempt in range(_RETRIES + 1):
            if self._serial:
                break
            try:
                return future.result()
            except UnsatisfiedConstraint:
                raise
            # The result crosses the process boundary here: a dispatch
            # failure from above, BrokenProcessPool when a worker died
            # mid-round, or the worker's own error, unpickling included.
            except Exception as exc:
                if attempt == _RETRIES:
                    self._degrade(f"round failed after {attempt} retries: {exc}")
                    break
                self.stats.retries += 1
                _POOL_RETRIES.inc()
                future = self._dispatch(fn, payload, local)
                self._rounds.pop(future, None)
        return local()

    def _chunks(self, jobs: Sequence) -> list[list]:
        size = max(1, -(-len(jobs) // (self.workers * 4)))
        return [list(jobs[i : i + size]) for i in range(0, len(jobs), size)]

    def _prove_round(self, pk: ProvingKey, jobs: list) -> Future:
        self.register(pk)
        self.stats.tasks += len(jobs)
        _POOL_TASKS.inc(len(jobs))
        payload = (pk.circuit.circuit_id, self._inline_pk(pk), jobs)
        return self._dispatch(_prove_chunk, payload, partial(proving.prove_many, pk, jobs))

    def _inline_pk(self, pk: ProvingKey) -> ProvingKey | None:
        """The key to ship with a payload (None when workers already hold it)."""
        return None if pk.circuit.circuit_id in self._pks else pk

    def map_prove(
        self, pk: ProvingKey, jobs: Sequence[tuple[Sequence[int], Any]]
    ) -> list[ProveResult]:
        """Prove independent ``(public_input, witness)`` jobs, order-preserving.

        Every chunk is one round (see :meth:`_resolve` for the retry and
        degrade policy).
        """
        futures = [self._prove_round(pk, chunk) for chunk in self._chunks(jobs)]
        results = [result for future in futures for result in self._resolve(future)]
        self.stats.synthesis_seconds += sum(r.prove_seconds for r in results)
        return results

    def map_verify(
        self, jobs: Sequence[tuple["proving.VerifyingKey", Sequence[int], Any]]
    ) -> list[bool]:
        """Verify independent ``(vk, public_input, proof)`` triples, in order.

        The batched-WCert entry point: a block's certificate proofs go out
        as chunks, one round each, and the verdict list lines up
        positionally with ``jobs``.  Verdicts are counted on
        ``repro_snark_batch_verify_total{result}`` in the parent process,
        and jobs on ``repro_pool_tasks_total`` / ``PoolStats.verifications``.
        """
        self.stats.verifications += len(jobs)
        futures = []
        for chunk in self._chunks(jobs):
            self.stats.tasks += len(chunk)
            _POOL_TASKS.inc(len(chunk))
            futures.append(self._dispatch(_verify_chunk, chunk, partial(_verify_all, chunk)))
        results = [ok for future in futures for ok in self._resolve(future)]
        proving.count_batch_verdicts(results)
        return results

    def submit_prove(
        self, pk: ProvingKey, public_input: Sequence[int], witness: Any
    ) -> Future:
        """Dispatch one job as its own round; :meth:`collect` resolves it.

        A serial pool proves it at once and returns a resolved future, so
        schedulers built on ``concurrent.futures.wait`` work unchanged.
        """
        return self._prove_round(pk, [(tuple(public_input), witness)])

    def collect(self, future: Future) -> ProveResult:
        """The result of a :meth:`submit_prove` round.

        A worker that died after accepting the job surfaces here and the
        round is sent again (see :meth:`_resolve`), so the merge-tree
        scheduler never sees a transport failure, only proof failures.
        """
        [result] = self._resolve(future)
        self.stats.synthesis_seconds += result.prove_seconds
        return result
