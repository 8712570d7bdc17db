"""The process-wide metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` is the single source of truth for "what did
this run cost" across the whole stack (see ``docs/OBSERVABILITY.md`` for the
naming conventions and the per-layer metric inventory).  Design goals, in
order:

1. **Cheap hot paths.**  The MiMC compression counter fires on every Merkle
   node hash, so the per-call cost must stay comparable to a bare attribute
   increment.  Instruments therefore hand out *bound series* objects
   (:meth:`Counter.labels`) that callers keep in module-level names; a bound
   ``inc()`` is one attribute load, one branch and one in-place add.
2. **Free when disabled.**  ``registry.disable()`` turns every instrument
   method into an early return — no dict lookup, no allocation, nothing for
   the GC (property-tested by ``tests/test_observability.py``).
3. **Labeled series.**  A metric declares its label names once; each
   distinct label-value combination is an independent series, created on
   first use and cached forever (series identity is stable, so hot callers
   bind once).

The registry is deliberately not thread-safe beyond CPython's natural
atomicity for ``+=`` on its own lock; the reproduction is single-threaded
and proves in-process.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import ObservabilityError

#: Default histogram buckets, tuned for sub-second protocol operations
#: (span walls, network latencies).  Upper bounds in seconds; +Inf implied.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labelnames: tuple[str, ...], labels: dict[str, str]) -> tuple[str, ...]:
    """Validate ``labels`` against the declared names; return the value tuple."""
    if set(labels) != set(labelnames):
        raise ObservabilityError(
            f"labels {sorted(labels)} do not match declared names {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Series:
    """Base class for one labeled series of a metric (bound instrument)."""

    __slots__ = ("_registry", "labels")

    def __init__(self, registry: "MetricsRegistry", labels: tuple[str, ...]) -> None:
        self._registry = registry
        self.labels = labels


class CounterSeries(_Series):
    """A monotonically increasing series; bind once, ``inc()`` in the hot path."""

    __slots__ = ("value",)

    def __init__(self, registry: "MetricsRegistry", labels: tuple[str, ...]) -> None:
        super().__init__(registry, labels)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be >= 0); no-op while the registry is disabled."""
        if self._registry._enabled:
            if amount < 0:
                raise ObservabilityError("counters can only increase")
            self.value += amount

    def reset(self) -> None:
        self.value = 0


class GaugeSeries(_Series):
    """A series that can go up and down (sizes, occupancies, worker counts)."""

    __slots__ = ("value",)

    def __init__(self, registry: "MetricsRegistry", labels: tuple[str, ...]) -> None:
        super().__init__(registry, labels)
        self.value = 0

    def set(self, value: int | float) -> None:
        if self._registry._enabled:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if self._registry._enabled:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        if self._registry._enabled:
            self.value -= amount

    def reset(self) -> None:
        self.value = 0


class HistogramSeries(_Series):
    """Cumulative-bucket histogram series (Prometheus semantics)."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(
        self,
        registry: "MetricsRegistry",
        labels: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(registry, labels)
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation; no-op while the registry is disabled."""
        if not self._registry._enabled:
            return
        i = 0
        buckets = self.buckets
        while i < len(buckets) and value > buckets[i]:
            i += 1
        self.bucket_counts[i] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out = []
        running = 0
        for bound, n in zip((*self.buckets, math.inf), self.bucket_counts):
            running += n
            out.append((bound, running))
        return out

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


class _Metric:
    """A named family of series sharing one type, help string and label names."""

    kind = "untyped"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help: str, labelnames: tuple[str, ...]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._series: dict[tuple[str, ...], _Series] = {}
        if not self.labelnames:
            self._series[()] = self._make_series(())

    def _make_series(self, key: tuple[str, ...]) -> _Series:
        raise NotImplementedError

    def labels(self, **labels: str) -> _Series:
        """The series bound to these label values (created on first use).

        Hot paths should call this once at module/object scope and keep the
        returned series, not per operation.
        """
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._make_series(key)
        return series

    def series(self) -> Iterator[_Series]:
        """All existing series of this metric (stable insertion order)."""
        return iter(self._series.values())

    def reset(self) -> None:
        for series in self._series.values():
            series.reset()

    def _default(self) -> _Series:
        if self.labelnames:
            raise ObservabilityError(
                f"metric '{self.name}' declares labels {self.labelnames}; "
                "use .labels(...) to select a series"
            )
        return self._series[()]


class Counter(_Metric):
    kind = "counter"

    def _make_series(self, key: tuple[str, ...]) -> CounterSeries:
        return CounterSeries(self._registry, key)

    def inc(self, amount: int | float = 1) -> None:
        """Increment the label-less default series."""
        self._default().inc(amount)

    def value(self, **labels: str) -> int | float:
        """Current value of one series (0 if it was never touched)."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series.value if series is not None else 0


class Gauge(_Metric):
    kind = "gauge"

    def _make_series(self, key: tuple[str, ...]) -> GaugeSeries:
        return GaugeSeries(self._registry, key)

    def set(self, value: int | float) -> None:
        self._default().set(value)

    def inc(self, amount: int | float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self._default().dec(amount)

    def value(self, **labels: str) -> int | float:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series.value if series is not None else 0


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.buckets = tuple(sorted(buckets))
        super().__init__(registry, name, help, labelnames)

    def _make_series(self, key: tuple[str, ...]) -> HistogramSeries:
        return HistogramSeries(self._registry, key, self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """Get-or-create home for every metric; one instance per process.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing metric (so independent modules can
    declare shared metrics without coordination), but re-declaring a name
    with a different type or label set raises
    :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._metrics: dict[str, _Metric] = {}

    # -- lifecycle -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether instruments record anything at all."""
        return self._enabled

    def enable(self) -> None:
        """Turn recording on (instruments resume from their current values)."""
        self._enabled = True

    def disable(self) -> None:
        """Turn every instrument into a no-op (zero per-call allocation)."""
        self._enabled = False

    def reset(self) -> None:
        """Zero every series of every metric (benchmark/test isolation hook)."""
        for metric in self._metrics.values():
            metric.reset()

    # -- declaration -----------------------------------------------------------

    def _get_or_create(
        self, cls: type[_Metric], name: str, help: str, labelnames: tuple[str, ...], **kw
    ) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ObservabilityError(
                    f"metric '{name}' already registered as {existing.kind}"
                    f"{existing.labelnames}; cannot redeclare as {cls.kind}"
                    f"{tuple(labelnames)}"
                )
            return existing
        metric = cls(self, name, help, tuple(labelnames), **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram (``buckets`` applies only on creation)."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    # -- introspection ----------------------------------------------------------

    def metrics(self) -> list[_Metric]:
        """Every registered metric, in registration order."""
        return list(self._metrics.values())

    def get(self, name: str) -> _Metric | None:
        """Look a metric up by name without creating it."""
        return self._metrics.get(name)

    def counter_samples(self) -> dict[str, int | float]:
        """Flattened ``name{labels}`` -> value map of counter series only.

        Used by the tracer to compute cheap per-span metric deltas.
        """
        samples: dict[str, int | float] = {}
        for metric in self._metrics.values():
            if not isinstance(metric, Counter):
                continue
            for series in metric.series():
                samples[sample_key(metric.name, metric.labelnames, series.labels)] = (
                    series.value
                )
        return samples

    def snapshot(self) -> dict:
        """A JSON-serializable dump of every metric and series."""
        out = []
        for metric in self._metrics.values():
            series_out = []
            for series in metric.series():
                entry: dict = {
                    "labels": dict(zip(metric.labelnames, series.labels))
                }
                if isinstance(series, HistogramSeries):
                    entry["count"] = series.count
                    entry["sum"] = series.sum
                    entry["buckets"] = [
                        [format_bound(bound), n] for bound, n in series.cumulative()
                    ]
                else:
                    entry["value"] = series.value
                series_out.append(entry)
            out.append(
                {
                    "name": metric.name,
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": series_out,
                }
            )
        return {"enabled": self._enabled, "metrics": out}


def format_bound(bound: float) -> str:
    """Prometheus-style bucket upper bound: ``+Inf`` or a round-tripping float."""
    if math.isinf(bound):
        return "+Inf"
    return format_value(bound)


def format_value(value: int | float) -> str:
    """Format a sample value so ``float(format_value(v)) == float(v)``."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def sample_key(
    name: str, labelnames: tuple[str, ...], labelvalues: tuple[str, ...], **extra: str
) -> str:
    """The canonical flattened series key: ``name{a="x",b="y"}``.

    Identical between the JSON flattener and the Prometheus exporter, which
    is what lets tests assert the two agree series-by-series.
    """
    pairs = list(zip(labelnames, labelvalues)) + sorted(extra.items())
    if not pairs:
        return name
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return f"{name}{{{body}}}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
