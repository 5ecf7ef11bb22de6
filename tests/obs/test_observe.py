"""Unit tests for the observability facade (repro.obs.observe)."""

import json

import pytest

from repro.obs.observe import OBSERVE_MODES, Observability
from repro.obs.trace import NullTracer, TickTracer


class TestModes:
    def test_default_is_metrics(self):
        obs = Observability()
        assert obs.mode == "metrics"
        assert obs.metrics_on
        assert not obs.tracing_on
        assert isinstance(obs.tracer, NullTracer)

    def test_full_mode_traces(self):
        obs = Observability(mode="full")
        assert obs.metrics_on and obs.tracing_on
        assert isinstance(obs.tracer, TickTracer)

    def test_off_mode_keeps_registry_real(self):
        obs = Observability(mode="off")
        assert not obs.metrics_on and not obs.tracing_on
        # The every-mode counters still record through the registry.
        obs.metrics.counter("serena_invocations_total").inc()
        assert obs.metrics.value("serena_invocations_total") == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown observe mode"):
            Observability(mode="loud")

    def test_modes_tuple(self):
        assert OBSERVE_MODES == ("off", "metrics", "full")


class TestCoerce:
    def test_instance_passes_through(self):
        obs = Observability(mode="full")
        assert Observability.coerce(obs) is obs

    def test_none_means_default(self):
        assert Observability.coerce(None).mode == "metrics"

    def test_string_selects_mode(self):
        assert Observability.coerce("off").mode == "off"
        assert Observability.coerce("full").mode == "full"

    def test_disabled_classmethod(self):
        assert Observability.disabled().mode == "off"


class TestRecordTick:
    def test_samples_histogram_and_counter(self):
        obs = Observability()
        obs.record_tick(0.001)
        obs.record_tick(0.002)
        assert obs.metrics.value("serena_ticks_total") == 2
        histogram = obs.metrics.get("serena_tick_seconds")
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.003)


class TestExport:
    def test_snapshot_shape(self):
        obs = Observability(mode="full")
        with obs.tracer.span("tick", 1):
            pass
        obs.record_tick(0.001)
        snap = obs.snapshot()
        assert snap["mode"] == "full"
        assert "serena_ticks_total" in snap["metrics"]
        assert snap["trace"] == {
            "enabled": True,
            "recorded": 1,
            "retained": 1,
            "dropped": 0,
        }
        json.dumps(snap)  # JSON-serializable end to end

    def test_to_prometheus_includes_tick_histogram(self):
        obs = Observability()
        obs.record_tick(0.001)
        text = obs.to_prometheus()
        assert "# TYPE serena_tick_seconds histogram" in text
        assert "serena_ticks_total 1" in text
