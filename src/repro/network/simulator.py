"""A small deterministic discrete-event network simulator.

Used by liveness-style experiments (certificate submission windows, ceasing
under delay — bench Q4) and by the chaos deployments of
:mod:`repro.scenarios.multi_node`: messages between nodes are delivered
after per-link latencies, and the simulation clock advances event by event.
Determinism comes from explicit seeds — no wall-clock, no global RNG.

An optional :class:`~repro.network.faults.FaultPlan` injects deterministic
misbehaviour inside :meth:`NetworkSimulator.send` / ``broadcast``: sampled
drops, duplication, reordering (extra jitter), delay spikes and scheduled
partitions (see ``docs/ROBUSTNESS.md``).

Traffic is observable on the process-wide metrics registry:
``repro_network_messages_total{kind}`` counts sends and broadcasts,
``repro_network_latency_seconds`` is a histogram of sampled link latencies
(simulated seconds, not wall time), ``repro_network_events_total`` counts
delivered events, ``repro_network_faults_total{kind}`` counts injected
faults by kind, ``repro_network_handler_errors_total`` counts deliveries
whose handler raised, and ``repro_network_dropped_total{reason}`` counts
undeliverable messages — ``reason="unknown_dst"`` for messages addressed to
unregistered nodes (which also raise
:class:`~repro.errors.UnknownNetworkNode`) and ``reason="fault"`` for
fault-injected losses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import observability
from repro.crypto.hashing import hash_bytes
from repro.errors import UnknownNetworkNode
from repro.network.faults import FaultDecision, FaultPlan

_REGISTRY = observability.registry()
_MESSAGES = _REGISTRY.counter(
    "repro_network_messages_total",
    "messages scheduled on the network simulator",
    labelnames=("kind",),
)
_MSG_SEND = _MESSAGES.labels(kind="send")
_MSG_BROADCAST = _MESSAGES.labels(kind="broadcast")
_DROPPED = _REGISTRY.counter(
    "repro_network_dropped_total",
    "messages that could not be delivered, by reason",
    labelnames=("reason",),
)
_DROPPED_UNKNOWN = _DROPPED.labels(reason="unknown_dst")
_DROPPED_FAULT = _DROPPED.labels(reason="fault")
_FAULTS = _REGISTRY.counter(
    "repro_network_faults_total",
    "injected network faults fired, by kind",
    labelnames=("kind",),
)
_HANDLER_ERRORS = _REGISTRY.counter(
    "repro_network_handler_errors_total",
    "deliveries whose receiving handler raised",
).labels()
_EVENTS = _REGISTRY.counter(
    "repro_network_events_total",
    "events delivered by the simulator loop",
).labels()
_LATENCY = _REGISTRY.histogram(
    "repro_network_latency_seconds",
    "sampled link latencies in simulated seconds",
).labels()

#: Delivery time reported for a message lost to fault injection.
NEVER = math.inf


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    deliver: Callable[[], None] = field(compare=False)


@dataclass(frozen=True)
class HandlerError:
    """One delivery whose receiving handler raised (kept, not re-raised)."""

    time: float
    src: str
    dst: str
    error: Exception


class LatencyModel:
    """Deterministic pseudo-random link latencies.

    Latency for the ``n``-th message on a link is derived by hashing
    ``(seed, src, dst, n)`` into ``[base, base + jitter]``.
    """

    def __init__(self, base: float = 0.05, jitter: float = 0.1, seed: bytes = b"net") -> None:
        self.base = base
        self.jitter = jitter
        self.seed = seed
        self._counters: dict[tuple[str, str], int] = {}

    def sample(self, src: str, dst: str) -> float:
        """The next latency sample for the (src, dst) link."""
        n = self._counters.get((src, dst), 0)
        self._counters[(src, dst)] = n + 1
        material = self.seed + src.encode() + b"->" + dst.encode() + n.to_bytes(8, "little")
        digest = hash_bytes(material, b"net/latency")
        fraction = int.from_bytes(digest[:8], "little") / float(1 << 64)
        return self.base + self.jitter * fraction


class NetworkSimulator:
    """An event loop delivering messages between registered handlers.

    ``faults`` attaches a deterministic :class:`FaultPlan` consulted on
    every ``send``; without one the network is perfect.  A handler that
    raises during delivery does **not** poison the event loop: the error is
    recorded on :attr:`handler_errors` (and counted) and the queue keeps
    draining — pass ``capture_handler_errors=False`` to restore the old
    propagate-and-abort behaviour.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        faults: FaultPlan | None = None,
        capture_handler_errors: bool = True,
    ) -> None:
        self.latency = latency or LatencyModel()
        self.faults = faults
        self.capture_handler_errors = capture_handler_errors
        self.clock = 0.0
        self._queue: list[_Event] = []
        self._sequence = itertools.count()
        self._handlers: dict[str, Callable[[str, Any], None]] = {}
        self.delivered = 0
        self._sends = 0
        #: Deliveries whose handler raised (in delivery order).
        self.handler_errors: list[HandlerError] = []
        #: Every non-clean fault decision as ``(send ordinal, time, src,
        #: dst, decision)``, in scheduling order — the byte-comparable fault
        #: schedule (see ``FaultDecision.encode``).
        self.fault_log: list[tuple[int, float, str, str, FaultDecision]] = []

    def register(self, name: str, handler: Callable[[str, Any], None]) -> None:
        """Register a node: ``handler(sender_name, message)``."""
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        """Remove a node; queued messages to it drop as ``unknown_dst``."""
        self._handlers.pop(name, None)

    @property
    def nodes(self) -> list[str]:
        """Registered node names."""
        return list(self._handlers)

    def fault_schedule(self) -> bytes:
        """Canonical byte encoding of every fault fired so far.

        Two simulators driven by identically seeded plans over the same
        message sequence produce identical schedules — the determinism the
        chaos tests pin byte-for-byte.
        """
        return b";".join(
            f"{n}|{t!r}|{src}|{dst}|".encode() + decision.encode()
            for n, t, src, dst, decision in self.fault_log
        )

    def send(self, src: str, dst: str, message: Any) -> float:
        """Schedule a point-to-point message; returns its delivery time.

        Raises :class:`~repro.errors.UnknownNetworkNode` (a ``KeyError``
        subclass, for backward compatibility) if ``dst`` was never
        registered; the drop is counted on
        ``repro_network_dropped_total{reason="unknown_dst"}``.  With a fault
        plan attached the message may be dropped (returns :data:`NEVER`),
        duplicated or delayed; injected faults are counted by kind on
        ``repro_network_faults_total``.
        """
        if dst not in self._handlers:
            _DROPPED_UNKNOWN.inc()
            raise UnknownNetworkNode(f"unknown destination node {dst!r}")
        ordinal = self._sends
        self._sends += 1
        decision = (
            self.faults.decide(src, dst, self.clock)
            if self.faults is not None
            else None
        )
        sample = self.latency.sample(src, dst)
        _MSG_SEND.inc()
        _LATENCY.observe(sample)
        if decision is not None and decision.kinds:
            self.fault_log.append((ordinal, self.clock, src, dst, decision))
            for kind in decision.kinds:
                _FAULTS.labels(kind=kind).inc()
        if decision is not None and not decision.deliver:
            _DROPPED_FAULT.inc()
            return NEVER
        extra = decision.extra_delay if decision is not None else 0.0
        at = self.clock + sample + extra
        self.schedule_at(at, lambda: self._deliver(src, dst, message))
        if decision is not None and decision.copies > 1:
            # the duplicate rides its own (deterministic) latency sample,
            # so the two copies arrive at distinct times
            for _ in range(decision.copies - 1):
                dup_at = self.clock + self.latency.sample(src, dst) + extra
                self.schedule_at(dup_at, lambda: self._deliver(src, dst, message))
        return at

    def broadcast(self, src: str, message: Any) -> list[float]:
        """Send to every registered node except the sender."""
        _MSG_BROADCAST.inc()
        return [
            self.send(src, dst, message) for dst in list(self._handlers) if dst != src
        ]

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        """Invoke a handler, isolating the loop from its failures."""
        handler = self._handlers.get(dst)
        if handler is None:
            # the node unregistered (e.g. crashed) after scheduling
            _DROPPED_UNKNOWN.inc()
            return
        try:
            handler(src, message)
        except Exception as exc:
            if not self.capture_handler_errors:
                raise
            self.handler_errors.append(
                HandlerError(time=self.clock, src=src, dst=dst, error=exc)
            )
            _HANDLER_ERRORS.inc()

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule an arbitrary action at an absolute time."""
        if time < self.clock:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, _Event(time, next(self._sequence), action))

    def step(self) -> bool:
        """Deliver the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self.clock = event.time
        event.deliver()
        self.delivered += 1
        _EVENTS.inc()
        return True

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> int:
        """Drain the queue (optionally up to time ``until``); returns events run."""
        count = 0
        while self._queue and count < max_events:
            if until is not None and self._queue[0].time > until:
                break
            self.step()
            count += 1
        if until is not None and self.clock < until:
            self.clock = until
        return count

    def advance(self, delay: float) -> int:
        """Move the clock forward by ``delay``, delivering everything due.

        Unlike :meth:`run` with no bound, this advances time even when the
        queue is empty — which is what lets scheduled partitions heal in a
        quiet (fully dropped) network.
        """
        return self.run(until=self.clock + delay)
