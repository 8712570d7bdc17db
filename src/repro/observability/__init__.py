"""Unified observability: one registry, one tracer, one stats API.

This package is the single place the whole stack reports cost to:

* :func:`registry` — the process-wide :class:`MetricsRegistry` every layer
  (MiMC, proving, mainchain, mempool, network simulator, Latus nodes)
  declares its counters/gauges/histograms on;
* :func:`tracer` — the process-wide :class:`Tracer` whose spans time the
  proving pipeline (base proofs, merge levels, whole epochs);
* :mod:`repro.observability.export` — JSON snapshot, Prometheus text and a
  human table over the same registry walk (also surfaced as
  ``python -m repro.cli metrics``).

Conventions, the metric inventory and a how-to-add-a-counter guide live in
``docs/OBSERVABILITY.md``.

Observability is **on by default** and can be switched off globally::

    from repro import observability
    observability.disable()      # every instrument becomes an early return
    observability.enable()
    observability.reset()        # zero all series, drop retained spans

The global registry object is created once per process and never
replaced, so modules may safely bind series at import; construct private
:class:`MetricsRegistry` / :class:`Tracer` instances for isolated tests.
"""

from __future__ import annotations

from repro.observability.registry import (
    Counter,
    CounterSeries,
    DEFAULT_BUCKETS,
    Gauge,
    GaugeSeries,
    Histogram,
    HistogramSeries,
    MetricsRegistry,
)
from repro.observability.tracing import NOOP_SPAN, Span, Tracer
from repro.observability import export

#: The one process-wide registry.  Never rebound — bind series freely.
_REGISTRY = MetricsRegistry()

#: The one process-wide tracer, recording into :data:`_REGISTRY`.
_TRACER = Tracer(_REGISTRY)


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-wide tracer (spans record into the global registry)."""
    return _TRACER


def enabled() -> bool:
    """Whether the global observability layer is recording."""
    return _REGISTRY.enabled


def enable() -> None:
    """Turn global metric recording and tracing on."""
    _REGISTRY.enable()


def disable() -> None:
    """Turn the global layer off (instruments become cheap no-ops)."""
    _REGISTRY.disable()


def reset() -> None:
    """Zero every global metric series and drop retained spans.

    The benchmark/test isolation hook: series objects stay valid (bound
    references keep working), only their values reset.
    """
    _REGISTRY.reset()
    _TRACER.reset()


def snapshot() -> dict:
    """JSON-serializable dump of the global registry plus finished spans."""
    return {
        "metrics": _REGISTRY.snapshot(),
        "spans": [span.to_dict() for span in _TRACER.roots],
    }


__all__ = [
    "Counter",
    "CounterSeries",
    "DEFAULT_BUCKETS",
    "Gauge",
    "GaugeSeries",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "export",
    "registry",
    "reset",
    "snapshot",
    "tracer",
]
