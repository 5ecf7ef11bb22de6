"""Unit tests for the zero-dependency metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("serena_things_total")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_kind(self, registry):
        assert registry.counter("serena_things_total").kind == "counter"


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("serena_depth")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value == 7

    def test_kind(self, registry):
        assert registry.gauge("serena_depth").kind == "gauge"


class TestReadThrough:
    def test_reads_its_source_at_read_time(self, registry):
        backlog = [3]
        lag = registry.read_through("serena_lag", "gauge", lambda: backlog[0], sub="a")
        assert registry.value("serena_lag", sub="a") == 3
        backlog[0] = 7
        assert lag.value == 7
        assert registry.snapshot()["serena_lag"]["series"][0]["value"] == 7
        assert registry.gauge("serena_lag", sub="a") is lag

    def test_freeze_pins_and_rebind_resumes(self, registry):
        count, depth = [5], [2]
        total = registry.read_through("serena_m_total", "counter", lambda: count[0])
        gauge = registry.read_through("serena_g", "gauge", lambda: depth[0])
        total.freeze()
        gauge.freeze()
        count[0] = depth[0] = 99
        assert (total.value, gauge.value) == (5, 2)
        registry.read_through("serena_m_total", "counter", lambda: 1)
        registry.read_through("serena_g", "gauge", lambda: 1)
        assert (total.value, gauge.value) == (6, 1)  # a counter continues

    def test_rejects_histograms_and_plain_instruments(self, registry):
        with pytest.raises(ValueError, match="counter or gauge"):
            registry.read_through("serena_h", "histogram", lambda: 0)
        registry.gauge("serena_plain")
        with pytest.raises(ValueError, match="already a plain gauge"):
            registry.read_through("serena_plain", "gauge", lambda: 0)


class TestHistogram:
    def test_observe_places_in_first_matching_bucket(self, registry):
        h = registry.histogram("serena_latency_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)  # bucket 0 (<= 1.0)
        h.observe(1.0)  # bucket 0 (inclusive upper bound)
        h.observe(1.5)  # bucket 1
        h.observe(9.0)  # overflow (+Inf)
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(12.0)

    def test_mean_and_quantile(self, registry):
        h = registry.histogram("serena_latency_seconds", buckets=(1.0, 2.0))
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        for value in (0.5, 0.5, 1.5, 9.0):
            h.observe(value)
        assert h.mean == pytest.approx(11.5 / 4)
        assert h.quantile(0.5) == 1.0  # rank 2 lands in bucket <=1.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == float("inf")  # overflow bucket

    def test_buckets_must_be_strictly_increasing(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("serena_bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("serena_empty_seconds", buckets=())

    def test_default_buckets_when_unspecified(self, registry):
        h = registry.histogram("serena_tick_seconds")
        assert h.buckets == DEFAULT_TICK_BUCKETS


class TestRegistryAddressing:
    def test_same_address_returns_same_instrument(self, registry):
        a = registry.counter("serena_x_total", kind="a")
        again = registry.counter("serena_x_total", kind="a")
        assert a is again

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("serena_x_total", a="1", b="2")
        b = registry.counter("serena_x_total", b="2", a="1")
        assert a is b

    def test_distinct_labels_are_distinct_series(self, registry):
        a = registry.counter("serena_x_total", kind="a")
        b = registry.counter("serena_x_total", kind="b")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert registry.family_total("serena_x_total") == 5

    def test_kind_clash_raises(self, registry):
        registry.counter("serena_x_total")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("serena_x_total")

    def test_invalid_metric_name_raises(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("serena-bad-name")

    def test_invalid_label_name_raises(self, registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("serena_x_total", **{"bad-label": "v"})

    def test_get_and_value(self, registry):
        registry.counter("serena_x_total", kind="a").inc(5)
        assert registry.get("serena_x_total", kind="a").value == 5
        assert registry.get("serena_x_total", kind="zzz") is None
        assert registry.value("serena_x_total", kind="a") == 5
        assert registry.value("serena_missing_total", default=-1) == -1

    def test_len_and_iter(self, registry):
        registry.counter("serena_a_total")
        registry.gauge("serena_b")
        assert len(registry) == 2
        kinds = sorted(i.kind for i in registry)
        assert kinds == ["counter", "gauge"]


class TestSnapshot:
    def test_counter_and_gauge_series(self, registry):
        registry.counter("serena_x_total", "things", kind="a").inc(2)
        registry.gauge("serena_depth", "depth").set(4)
        snap = registry.snapshot()
        assert snap["serena_x_total"]["kind"] == "counter"
        assert snap["serena_x_total"]["help"] == "things"
        assert snap["serena_x_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 2}
        ]
        assert snap["serena_depth"]["series"][0]["value"] == 4

    def test_histogram_buckets_are_cumulative_with_inf(self, registry):
        h = registry.histogram("serena_latency_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            h.observe(value)
        series = registry.snapshot()["serena_latency_seconds"]["series"][0]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(11.0)
        assert series["buckets"] == {"1": 1, "2": 2, "+Inf": 3}

    def test_snapshot_is_json_serializable(self, registry):
        import json

        registry.histogram("serena_latency_seconds", buckets=(1.0,)).observe(0.5)
        registry.counter("serena_x_total", kind="a").inc()
        json.dumps(registry.snapshot())


class TestPrometheusText:
    def test_help_type_and_sample_lines(self, registry):
        registry.counter("serena_x_total", "Things seen", kind="a").inc(2)
        text = registry.to_prometheus()
        assert "# HELP serena_x_total Things seen\n" in text
        assert "# TYPE serena_x_total counter\n" in text
        assert 'serena_x_total{kind="a"} 2\n' in text

    def test_label_value_escaping(self, registry):
        registry.counter("serena_x_total", kind='we"ird\\\n').inc()
        text = registry.to_prometheus()
        assert 'kind="we\\"ird\\\\\\n"' in text

    def test_histogram_rendering(self, registry):
        h = registry.histogram(
            "serena_latency_seconds", "Latency", buckets=(1.0, 2.0)
        )
        for value in (0.5, 1.5, 9.0):
            h.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE serena_latency_seconds histogram" in text
        assert 'serena_latency_seconds_bucket{le="1"} 1\n' in text
        assert 'serena_latency_seconds_bucket{le="2"} 2\n' in text
        assert 'serena_latency_seconds_bucket{le="+Inf"} 3\n' in text
        assert "serena_latency_seconds_sum 11" in text
        assert "serena_latency_seconds_count 3\n" in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.to_prometheus() == ""

    def test_unlabeled_sample_has_no_braces(self, registry):
        registry.counter("serena_ticks_total").inc()
        assert "serena_ticks_total 1\n" in registry.to_prometheus()


class TestBareInstruments:
    """The instrument classes work standalone (hot-path handles)."""

    def test_counter_constructor(self):
        c = Counter("serena_x_total", ())
        c.inc()
        assert c.value == 1

    def test_gauge_constructor(self):
        g = Gauge("serena_x", ())
        g.set(2)
        assert g.value == 2

    def test_histogram_constructor(self):
        h = Histogram("serena_x_seconds", (), (1.0,))
        h.observe(0.1)
        assert h.count == 1
