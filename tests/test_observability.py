"""Tests for the unified observability layer (repro.observability).

Covers the registry (labels, get-or-create, clash detection), the tracer
(nesting, metric deltas, root retention), the disabled-mode zero-overhead
contract, exporter round-trips, and the end-to-end wiring through a
harness epoch.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro import observability
from repro.errors import ObservabilityError
from repro.observability import (
    MetricsRegistry,
    Tracer,
    export,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    """A private registry so tests never pollute the process-wide one."""
    return MetricsRegistry()


class TestCounters:
    def test_default_series_increments(self, registry):
        c = registry.counter("c_total", "help text")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_bound_series_is_cached(self, registry):
        c = registry.counter("c_total", labelnames=("kind",))
        assert c.labels(kind="a") is c.labels(kind="a")
        assert c.labels(kind="a") is not c.labels(kind="b")

    def test_labeled_series_independent(self, registry):
        c = registry.counter("c_total", labelnames=("kind",))
        c.labels(kind="a").inc(2)
        c.labels(kind="b").inc(3)
        assert c.value(kind="a") == 2
        assert c.value(kind="b") == 3

    def test_untouched_series_reads_zero(self, registry):
        c = registry.counter("c_total", labelnames=("kind",))
        assert c.value(kind="never") == 0

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("c_total")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("c_total", labelnames=("kind",))
        with pytest.raises(ObservabilityError):
            c.labels(wrong="x")
        with pytest.raises(ObservabilityError):
            c.labels()  # labelled metric needs explicit labels

    def test_default_series_on_labeled_metric_rejected(self, registry):
        c = registry.counter("c_total", labelnames=("kind",))
        with pytest.raises(ObservabilityError):
            c.inc()


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self, registry):
        g = registry.gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_histogram_buckets_cumulative(self, registry):
        h = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        series = h.labels()
        for v in (0.05, 0.5, 0.5, 5.0):
            series.observe(v)
        cumulative = series.cumulative()
        assert [count for _, count in cumulative] == [1, 3, 4]
        assert cumulative[-1][0] == float("inf")
        assert series.count == 4
        assert series.sum == pytest.approx(6.05)

    def test_histogram_observation_on_bucket_boundary(self, registry):
        h = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)  # le="0.1" is inclusive (Prometheus semantics)
        assert [c for _, c in h.labels().cumulative()] == [1, 1, 1]


class TestRegistry:
    def test_get_or_create_is_idempotent(self, registry):
        a = registry.counter("c_total", "first declaration")
        b = registry.counter("c_total", "second declaration ignored")
        assert a is b

    def test_type_clash_rejected(self, registry):
        registry.counter("m")
        with pytest.raises(ObservabilityError):
            registry.gauge("m")

    def test_labelname_clash_rejected(self, registry):
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("m", labelnames=("b",))

    def test_reset_keeps_bound_series_alive(self, registry):
        series = registry.counter("c_total").labels()
        series.inc(7)
        registry.reset()
        assert series.value == 0
        series.inc()  # the bound reference still feeds the same series
        assert registry.counter("c_total").value() == 1

    def test_snapshot_is_json_serializable(self, registry):
        registry.counter("c_total", labelnames=("k",)).labels(k="x").inc()
        registry.histogram("h_seconds").observe(0.2)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["enabled"] is True
        names = [m["name"] for m in snapshot["metrics"]]
        assert names == ["c_total", "h_seconds"]


class TestDisabledMode:
    def test_disabled_instruments_record_nothing(self, registry):
        c = registry.counter("c_total").labels()
        g = registry.gauge("g").labels()
        h = registry.histogram("h_seconds").labels()
        registry.disable()
        c.inc()
        g.set(9)
        h.observe(1.0)
        registry.enable()
        assert c.value == 0
        assert g.value == 0
        assert h.count == 0

    def test_disabled_inc_allocates_nothing(self, registry):
        """The zero-overhead contract: a disabled inc() is a pure branch."""
        series = registry.counter("c_total").labels()
        registry.disable()
        series.inc()  # warm any lazy state before measuring
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            series.inc()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        # compare only this module's allocations; constant bookkeeping noise
        # is fine, per-call garbage (>= 1 object per inc) is not
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if "test_observability" in str(stat.traceback)
        )
        assert grown < 1000  # 1000 calls: anything per-call would be >= 16KB

    def test_disabled_tracer_returns_shared_noop(self, registry):
        tracer = Tracer(registry)
        registry.disable()
        a = tracer.span("x")
        b = tracer.span("y")
        assert a is b  # the shared singleton: no allocation when off
        with a:
            pass
        assert list(tracer.roots) == []


class TestTracer:
    def test_nesting_builds_a_tree(self, registry):
        tracer = Tracer(registry)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner"]
        assert inner.wall_seconds >= 0.0

    def test_span_attrs_survive(self, registry):
        tracer = Tracer(registry)
        with tracer.span("s", level=3) as span:
            pass
        assert span.to_dict()["attrs"] == {"level": 3}

    def test_metric_deltas_capture_counter_movement(self, registry):
        tracer = Tracer(registry)
        c = registry.counter("work_total").labels()
        c.inc(5)  # movement before the span must not be attributed to it
        with tracer.span("stage"):
            c.inc(3)
        (root,) = tracer.roots
        assert root.metric_deltas == {"work_total": 3}

    def test_quiet_span_has_no_deltas(self, registry):
        tracer = Tracer(registry)
        registry.counter("work_total").labels().inc()
        with tracer.span("idle"):
            pass
        (root,) = tracer.roots
        assert root.metric_deltas == {}

    def test_finished_spans_feed_the_histogram(self, registry):
        tracer = Tracer(registry)
        with tracer.span("stage"):
            pass
        hist = registry.get("repro_span_seconds")
        assert hist.labels(span="stage").count == 1

    def test_root_retention_is_bounded(self, registry):
        tracer = Tracer(registry, max_roots=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["s6", "s7", "s8", "s9"]


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c_total", "plain counter").labels().inc(3)
        labeled = registry.counter("l_total", labelnames=("kind",))
        labeled.labels(kind="a").inc()
        labeled.labels(kind="b").inc(2)
        registry.gauge("g", "a gauge").labels().set(1.5)
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_prometheus_round_trips_to_flatten(self):
        registry = self._populated()
        text = export.to_prometheus(registry)
        assert export.parse_prometheus(text) == export.flatten(registry)

    def test_flatten_expands_histograms(self):
        flat = export.flatten(self._populated())
        assert flat['h_seconds_bucket{le="0.1"}'] == 0.0
        assert flat['h_seconds_bucket{le="1"}'] == 1.0
        assert flat['h_seconds_bucket{le="+Inf"}'] == 1.0
        assert flat["h_seconds_count"] == 1.0
        assert flat["h_seconds_sum"] == pytest.approx(0.5)

    def test_prometheus_format_shape(self):
        text = export.to_prometheus(self._populated())
        assert "# HELP c_total plain counter" in text
        assert "# TYPE c_total counter" in text
        assert 'l_total{kind="a"} 1' in text
        assert "# TYPE h_seconds histogram" in text
        assert text.endswith("\n")

    def test_json_matches_snapshot(self):
        registry = self._populated()
        assert json.loads(export.to_json(registry)) == registry.snapshot()

    def test_table_renders_every_series(self):
        table = export.to_table(self._populated())
        for fragment in ("c_total", "kind=a", "kind=b", "g", "count=1"):
            assert fragment in table

    def test_table_empty_registry(self):
        assert "no metrics" in export.to_table(MetricsRegistry())


class TestGlobalLayer:
    def test_registry_and_tracer_are_process_wide_singletons(self):
        assert observability.registry() is observability.registry()
        assert observability.tracer() is observability.tracer()
        assert observability.tracer().registry is observability.registry()

    def test_enable_disable_round_trip(self):
        assert observability.enabled()
        observability.disable()
        try:
            assert not observability.enabled()
        finally:
            observability.enable()
        assert observability.enabled()

    def test_snapshot_shape(self):
        snapshot = observability.snapshot()
        assert set(snapshot) == {"metrics", "spans"}


class TestSharedStatsSchema:
    def test_pool_and_composition_stats_share_timing_names(self):
        """One stats surface: proving time is synthesis and wall seconds."""
        from repro.snark.recursive import CompositionStats

        fields = set(CompositionStats().to_dict())
        assert {"synthesis_seconds", "wall_seconds"} <= fields
        assert not {f for f in fields if f.startswith("pool_") or "serialization" in f}

    def test_composition_stats_to_dict_round_trips_json(self):
        from repro.snark.recursive import CompositionStats

        stats = CompositionStats(base_proofs=2, wall_seconds=1.5)
        loaded = json.loads(json.dumps(stats.to_dict()))
        assert loaded["base_proofs"] == 2
        assert loaded["wall_seconds"] == 1.5


class TestEndToEndWiring:
    def test_harness_epoch_populates_every_layer(self):
        """One harness epoch observed end-to-end by the global registry."""
        from repro.crypto.keys import KeyPair
        from repro.scenarios import ZendooHarness

        observability.reset()
        harness = ZendooHarness()
        harness.mine(2)
        sc = harness.create_sidechain("obs-e2e", epoch_len=4, submit_len=2)
        user = KeyPair.from_seed("obs-e2e/user")
        harness.forward_transfer(sc, user, 50_000)
        harness.run_epochs(sc, 1)

        flat = export.flatten(observability.registry())
        assert flat["repro_mimc_compressions_total"] > 0
        assert flat["repro_mainchain_blocks_connected_total"] > 0
        assert flat['repro_cctp_wcert_total{result="accepted"}'] >= 1
        assert flat["repro_latus_blocks_forged_total"] > 0
        assert flat["repro_network_latency_seconds_count"] > 0

        telemetry = harness.telemetry()
        json.dumps(telemetry)  # fully serializable
        span_names = {s["name"] for s in telemetry["spans"]}
        assert "epoch/prove" in span_names
        (sc_summary,) = telemetry["sidechains"].values()
        assert sc_summary["certificates"] >= 1
        assert sc_summary["last_epoch_stats"]["wall_seconds"] > 0

        # both exporters agree on every series of the same run
        registry = observability.registry()
        assert export.parse_prometheus(export.to_prometheus(registry)) == flat
