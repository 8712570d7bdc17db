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
* **Chunked submission.**  :meth:`map_prove` groups independent jobs into
  chunks sized to the worker count, amortizing one IPC round over many
  syntheses; :meth:`submit_prove` dispatches a single job for the
  merge-tree scheduler, which needs per-proof completion granularity.
* **Serial fallback.**  ``max_workers <= 1`` (or an executor that cannot be
  created, or a payload that cannot be pickled) degrades to in-process
  proving with identical results — the pool is an accelerator, never a
  correctness dependency.
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
from typing import Any, Sequence

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


def _prove_chunk(circuit_id: str, job_blob: bytes) -> list[ProveResult]:
    """Prove a chunk of ``(public_input, witness)`` jobs in one IPC round.

    Routed through :func:`repro.snark.proving.prove_many`, so the whole
    chunk runs under one ``snark/prove_many`` span.
    """
    inline_pk, jobs = pickle.loads(job_blob)
    pk = _worker_pk(circuit_id, inline_pk)
    return proving.prove_many(pk, jobs)


def _prove_one(circuit_id: str, job_blob: bytes) -> ProveResult:
    """Prove a single job (merge-tree scheduling granularity)."""
    inline_pk, public, witness = pickle.loads(job_blob)
    pk = _worker_pk(circuit_id, inline_pk)
    return proving.prove_with_stats(pk, public, witness)


def _verify_chunk(_circuit_id: str, job_blob: bytes) -> list[bool]:
    """Verify a chunk of ``(vk, public_input, proof)`` triples in one round.

    Raw :func:`repro.snark.proving.verify` calls — verdict counters live in
    the parent process (worker-side registries are invisible to it), so the
    parent counts the gathered results instead.
    """
    jobs = pickle.loads(job_blob)
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

    def occupancy(self, wall_seconds: float) -> float:
        """Fraction of worker capacity kept busy over ``wall_seconds``."""
        if self.workers <= 0 or wall_seconds <= 0:
            return 0.0
        return min(1.0, self.synthesis_seconds / (wall_seconds * self.workers))

    def to_dict(self) -> dict:
        """JSON-serializable snapshot using the shared telemetry field names.

        ``synthesis_seconds`` / ``serialization_seconds`` match the
        identically named fields of
        :meth:`~repro.snark.recursive.CompositionStats.to_dict`, so pool and
        composition accounting line up column-for-column in telemetry.
        """
        return asdict(self)


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
        chunk_size: int | None = None,
        clamp_to_cpus: bool = True,
        max_dispatch_retries: int = 2,
        fault_injector: WorkerFaultInjector | None = None,
    ) -> None:
        cpus = os.cpu_count() or 1
        requested = cpus if max_workers is None else max(1, int(max_workers))
        self.workers = min(requested, cpus) if clamp_to_cpus else requested
        self.chunk_size = chunk_size
        #: How many times one dispatch is retried before the pool degrades
        #: to serial proving for good.
        self.max_dispatch_retries = max(0, int(max_dispatch_retries))
        #: Optional deterministic failure injection (chaos testing).
        self.fault_injector = fault_injector
        self._dispatch_index = 0
        self.stats = PoolStats(workers=self.workers, requested_workers=requested)
        self._pks: dict[str, ProvingKey] = {}
        self._executor: ProcessPoolExecutor | None = None
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
        if self._serial:
            return None
        if self._executor is None:
            try:
                started = time.perf_counter()
                blob = pickle.dumps(self._pks, protocol=pickle.HIGHEST_PROTOCOL)
                self.stats.serialization_seconds += time.perf_counter() - started
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(blob,),
                )
            except Exception as exc:  # unpicklable keys, fork failure, ...
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

    def _inline_pk(self, pk: ProvingKey) -> ProvingKey | None:
        """The key to ship with a payload (None when workers already hold it)."""
        return None if pk.circuit.circuit_id in self._pks else pk

    @staticmethod
    def _failed_future(exc: Exception) -> Future:
        future: Future = Future()
        future.set_exception(exc)
        return future

    def _inject_failure(self) -> Exception | None:
        """Consult the fault injector for the next dispatch ordinal."""
        index = self._dispatch_index
        self._dispatch_index += 1
        if self.fault_injector is not None and self.fault_injector.should_fail(index):
            self.stats.injected_failures += 1
            _POOL_INJECTED.inc()
            return SnarkError(f"injected worker failure (dispatch {index})")
        return None

    def _dispatch(
        self, executor: ProcessPoolExecutor, fn, cid: str, payload: tuple
    ) -> Future:
        """One IPC round; never raises — failures come back as failed futures."""
        injected = self._inject_failure()
        if injected is not None:
            return self._failed_future(injected)
        try:
            started = time.perf_counter()
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self.stats.serialization_seconds += time.perf_counter() - started
            future = executor.submit(fn, cid, blob)
        except Exception as exc:  # unpicklable payload, broken executor, ...
            return self._failed_future(exc)
        self.stats.chunks += 1
        _POOL_CHUNKS.inc()
        return future

    def _count_retry(self) -> None:
        self.stats.retries += 1
        _POOL_RETRIES.inc()

    def _prove_serial(self, pk: ProvingKey, jobs: Sequence[tuple]) -> list[ProveResult]:
        results = []
        for public, witness in jobs:
            result = proving.prove_with_stats(pk, public, witness)
            self.stats.tasks += 1
            _POOL_TASKS.inc()
            self.stats.synthesis_seconds += result.prove_seconds
            results.append(result)
        return results

    def map_prove(
        self, pk: ProvingKey, jobs: Sequence[tuple[Sequence[int], Any]]
    ) -> list[ProveResult]:
        """Prove independent ``(public_input, witness)`` jobs, order-preserving.

        Jobs are chunked so each IPC round amortizes over several syntheses.
        Failed chunks — a dying worker, an unpicklable payload, an injected
        fault — are retried up to ``max_dispatch_retries`` times (counted on
        ``repro_pool_retries_total``); a chunk that exhausts its retries
        degrades the pool to serial proving, which finishes it (and every
        later chunk) in-process with identical results.
        ``UnsatisfiedConstraint`` is a *proof* failure, never a transport
        failure, and is always re-raised.
        """
        if not jobs:
            return []
        self.register(pk)
        executor = self._ensure_executor()
        if executor is None:
            return self._prove_serial(pk, jobs)

        size = self.chunk_size or max(1, -(-len(jobs) // (self.workers * 4)))
        chunks = [list(jobs[i : i + size]) for i in range(0, len(jobs), size)]
        cid = pk.circuit.circuit_id
        inline = self._inline_pk(pk)
        futures = []
        for chunk in chunks:
            futures.append(self._dispatch(executor, _prove_chunk, cid, (inline, chunk)))
            self.stats.tasks += len(chunk)
            _POOL_TASKS.inc(len(chunk))

        results: list[ProveResult] = []
        for chunk, future in zip(chunks, futures):
            chunk_results = self._await_chunk(executor, cid, inline, chunk, future)
            if chunk_results is None:  # retries exhausted; pool degraded
                results.extend(self._prove_serial_results(pk, chunk))
                continue
            for result in chunk_results:
                self.stats.synthesis_seconds += result.prove_seconds
            results.extend(chunk_results)
        return results

    def _await_chunk(
        self,
        executor: ProcessPoolExecutor,
        cid: str,
        inline: ProvingKey | None,
        chunk: list,
        future: Future,
    ) -> list[ProveResult] | None:
        """Resolve one chunk, retrying on transport failure; None = give up."""
        if self._serial:
            return None
        for attempt in range(self.max_dispatch_retries + 1):
            try:
                return future.result()
            except UnsatisfiedConstraint:
                raise
            except Exception as exc:
                if attempt == self.max_dispatch_retries:
                    self._degrade(
                        f"chunk failed after {attempt} retries: {exc}"
                    )
                    return None
                self._count_retry()
                future = self._dispatch(executor, _prove_chunk, cid, (inline, chunk))
        return None

    def _prove_serial_results(
        self, pk: ProvingKey, jobs: Sequence[tuple]
    ) -> list[ProveResult]:
        """Serial proving for jobs already counted as dispatched tasks."""
        results = []
        for public, witness in jobs:
            result = proving.prove_with_stats(pk, public, witness)
            self.stats.synthesis_seconds += result.prove_seconds
            results.append(result)
        return results

    def map_verify(
        self, jobs: Sequence[tuple["proving.VerifyingKey", Sequence[int], Any]]
    ) -> list[bool]:
        """Verify independent ``(vk, public_input, proof)`` triples, in order.

        The batched-WCert entry point: a block's certificate proofs go out
        as chunks sized to the worker count, and the verdict list lines up
        positionally with ``jobs``.  A chunk that keeps failing after
        ``max_dispatch_retries`` retries degrades the pool to serial
        verification (identical results); a pool already in serial fallback
        verifies in-process via :func:`repro.snark.proving.verify_many`.
        Verdicts are counted on ``repro_snark_batch_verify_total{result}``
        in the parent process either way, and jobs on
        ``repro_pool_tasks_total`` / ``PoolStats.verifications``.
        """
        if not jobs:
            return []
        self.stats.verifications += len(jobs)
        executor = self._ensure_executor()
        if executor is None:
            return proving.verify_many(jobs)

        size = self.chunk_size or max(1, -(-len(jobs) // (self.workers * 4)))
        chunks = [tuple(jobs[i : i + size]) for i in range(0, len(jobs), size)]
        futures = []
        for chunk in chunks:
            futures.append(self._dispatch(executor, _verify_chunk, "", chunk))
            self.stats.tasks += len(chunk)
            _POOL_TASKS.inc(len(chunk))

        results: list[bool] = []
        for chunk, future in zip(chunks, futures):
            verdicts = self._await_verify_chunk(executor, chunk, future)
            if verdicts is None:  # retries exhausted; pool degraded
                verdicts = [
                    proving.verify(vk, public, proof)
                    for vk, public, proof in chunk
                ]
            results.extend(verdicts)
        proving.count_batch_verdicts(results)
        return results

    def _await_verify_chunk(
        self, executor: ProcessPoolExecutor, chunk: tuple, future: Future
    ) -> list[bool] | None:
        """Resolve one verify chunk, retrying on failure; None = give up."""
        if self._serial:
            return None
        for attempt in range(self.max_dispatch_retries + 1):
            try:
                return future.result()
            except Exception as exc:
                if attempt == self.max_dispatch_retries:
                    self._degrade(
                        f"verify chunk failed after {attempt} retries: {exc}"
                    )
                    return None
                self._count_retry()
                future = self._dispatch(executor, _verify_chunk, "", chunk)
        return None

    def submit_prove(
        self, pk: ProvingKey, public_input: Sequence[int], witness: Any
    ) -> Future:
        """Dispatch one job; returns a Future resolving to a ProveResult.

        In serial fallback the job is proven immediately and the returned
        future is already resolved (so schedulers built on
        ``concurrent.futures.wait`` work unchanged).  A dispatch that fails
        (including an injected fault) is retried up to
        ``max_dispatch_retries`` times before the pool degrades to serial.
        """
        self.register(pk)
        executor = self._ensure_executor()
        if executor is not None:
            cid = pk.circuit.circuit_id
            payload = (self._inline_pk(pk), tuple(public_input), witness)
            for attempt in range(self.max_dispatch_retries + 1):
                future = self._dispatch(executor, _prove_one, cid, payload)
                exc = future.exception() if future.done() else None
                if exc is None:
                    self.stats.tasks += 1
                    _POOL_TASKS.inc()
                    # remember the job so collect() can re-dispatch if the
                    # worker dies after submission
                    future._repro_job = (pk, tuple(public_input), witness)
                    return future
                if attempt == self.max_dispatch_retries:
                    self._degrade(f"single-job dispatch failed: {exc}")
                    break
                self._count_retry()
        future = Future()
        future._repro_serial = True  # accounted at proving time, not collect
        try:
            [result] = self._prove_serial(pk, [(public_input, witness)])
            future.set_result(result)
        except Exception as exc:
            future.set_exception(exc)
        return future

    def collect(self, future: Future) -> ProveResult:
        """Resolve a future from :meth:`submit_prove`, updating accounting.

        A worker that died *after* accepting the job surfaces here; the job
        is re-dispatched through :meth:`submit_prove` (whose own retry and
        degrade policy bounds the recovery), so the merge-tree scheduler
        never sees a transport failure — only proof failures propagate.
        """
        try:
            result = future.result()
        except UnsatisfiedConstraint:
            raise
        except Exception as exc:
            job = getattr(future, "_repro_job", None)
            if job is None:
                raise
            depth = getattr(future, "_repro_redispatches", 0)
            if depth >= self.max_dispatch_retries:
                self._degrade(f"job failed after {depth} re-dispatches: {exc}")
            else:
                self._count_retry()
            pk, public_input, witness = job
            retry = self.submit_prove(pk, public_input, witness)
            retry._repro_redispatches = depth + 1
            return self.collect(retry)
        if not getattr(future, "_repro_serial", False):
            self.stats.synthesis_seconds += result.prove_seconds
        return result
