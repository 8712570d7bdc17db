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


def flatten(registry: MetricsRegistry) -> dict[str, float]:
    """Every series as a flat ``name{labels}`` -> float map.

    Histogram series expand into the Prometheus triplet:
    ``name_bucket{...,le="..."}`` per cumulative bucket, ``name_sum`` and
    ``name_count``.
    """
    samples: dict[str, float] = {}
    for metric in registry.metrics():
        for series in metric.series():
            if isinstance(series, HistogramSeries):
                for bound, cum in series.cumulative():
                    key = sample_key(
                        f"{metric.name}_bucket",
                        metric.labelnames,
                        series.labels,
                        le=format_bound(bound),
                    )
                    samples[key] = float(cum)
                samples[
                    sample_key(f"{metric.name}_sum", metric.labelnames, series.labels)
                ] = float(series.sum)
                samples[
                    sample_key(f"{metric.name}_count", metric.labelnames, series.labels)
                ] = float(series.count)
            else:
                samples[
                    sample_key(metric.name, metric.labelnames, series.labels)
                ] = float(series.value)
    return samples


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
        for series in metric.series():
            if isinstance(series, HistogramSeries):
                for bound, cum in series.cumulative():
                    key = sample_key(
                        f"{metric.name}_bucket",
                        metric.labelnames,
                        series.labels,
                        le=format_bound(bound),
                    )
                    lines.append(f"{key} {format_value(cum)}")
                sum_key = sample_key(
                    f"{metric.name}_sum", metric.labelnames, series.labels
                )
                lines.append(f"{sum_key} {format_value(series.sum)}")
                count_key = sample_key(
                    f"{metric.name}_count", metric.labelnames, series.labels
                )
                lines.append(f"{count_key} {format_value(series.count)}")
            else:
                key = sample_key(metric.name, metric.labelnames, series.labels)
                lines.append(f"{key} {format_value(series.value)}")
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
