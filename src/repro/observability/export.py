"""Exporters: JSON snapshot, Prometheus text format, human table.

All three render the same registry walk, and :func:`flatten` /
:func:`parse_prometheus` produce the identical ``name{labels}`` -> value
mapping from either side, which is what lets the test-suite assert the
exporters agree on every series instead of eyeballing two formats.
"""

from __future__ import annotations

import json

from repro.observability.registry import (
    HistogramSeries,
    MetricsRegistry,
    format_bound,
    format_value,
    sample_key,
)


def _samples(metric):
    """``(name{labels}, value)`` for every sample of ``metric``; a histogram
    series expands into the Prometheus triplet: ``name_bucket{...,le="..."}``
    per cumulative bucket, ``name_sum`` and ``name_count``."""
    name, labelnames = metric.name, metric.labelnames
    for series in metric.series():
        labels = series.labels
        if isinstance(series, HistogramSeries):
            for bound, cum in series.cumulative():
                yield sample_key(f"{name}_bucket", labelnames, labels, le=format_bound(bound)), cum
            yield sample_key(f"{name}_sum", labelnames, labels), series.sum
            yield sample_key(f"{name}_count", labelnames, labels), series.count
        else:
            yield sample_key(name, labelnames, labels), series.value


def flatten(registry: MetricsRegistry) -> dict[str, float]:
    """Every series as a flat ``name{labels}`` -> float map (see :func:`_samples`)."""
    return {key: float(value) for metric in registry.metrics() for key, value in _samples(metric)}


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=False)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        lines.extend(f"{key} {format_value(value)}" for key, value in _samples(metric))
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into the :func:`flatten` sample map.

    Used by the tests to verify exporter round-trips; only
    the subset of the format :func:`to_prometheus` emits is supported.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def to_table(registry: MetricsRegistry) -> str:
    """A human-readable metrics table (the ``repro.cli metrics`` view).

    Counters and gauges print one row per series; histograms print
    count/sum/mean so latency distributions stay readable in a terminal.
    """
    rows: list[tuple[str, str, str]] = []
    for metric in registry.metrics():
        for series in metric.series():
            labels = ",".join(
                f"{k}={v}" for k, v in zip(metric.labelnames, series.labels)
            )
            if isinstance(series, HistogramSeries):
                mean = series.sum / series.count if series.count else 0.0
                rendered = (
                    f"count={series.count} sum={series.sum:.6f}s mean={mean:.6f}s"
                )
            else:
                rendered = format_value(series.value)
            rows.append((metric.name, labels, rendered))
    if not rows:
        return "(no metrics recorded)\n"
    name_w = max(len(r[0]) for r in rows)
    label_w = max(len(r[1]) for r in rows)
    lines = [
        f"{'metric'.ljust(name_w)}  {'labels'.ljust(label_w)}  value",
        f"{'-' * name_w}  {'-' * label_w}  -----",
    ]
    for name, labels, rendered in rows:
        lines.append(f"{name.ljust(name_w)}  {labels.ljust(label_w)}  {rendered}")
    return "\n".join(lines) + "\n"
