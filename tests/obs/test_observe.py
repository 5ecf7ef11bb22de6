"""Unit tests for the observability facade (repro.obs.observe): one
metrics registry, always recording."""

import json

import pytest

from repro.devices.prototypes import GET_TEMPERATURE
from repro.devices.scenario import build_temperature_surveillance
from repro.model.services import Service, ServiceRegistry
from repro.obs.observe import Observability


class TestRecordTick:
    def test_samples_histogram_and_counter(self):
        obs = Observability()
        obs.record_tick(0.001)
        obs.record_tick(0.002)
        assert obs.metrics.value("serena_ticks_total") == 2
        histogram = obs.metrics.get("serena_tick_seconds")
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.003)

    def test_every_pems_tick_is_counted(self):
        scenario = build_temperature_surveillance()
        scenario.sensors["sensor06"].heat(3, 20, peak=15.0)
        scenario.run(12)
        metrics = scenario.pems.obs.metrics
        assert metrics.value("serena_ticks_total") == 12
        assert metrics.get("serena_tick_seconds").count == 12
        assert metrics.family_total("serena_invocations_total") > 0


class TestOneRegistry:
    def test_every_pems_component_shares_it(self):
        pems = build_temperature_surveillance().pems
        queries = pems.queries
        shared = [
            pems.bus.obs,
            pems.erm.obs,
            pems.environment.registry.obs,
            queries.obs,
            queries.scheduler.obs,
            queries.shared.obs,
        ]
        assert all(obs is pems.obs for obs in shared)

    def test_a_standalone_registry_records_outcomes(self):
        def down(inputs, instant):
            raise RuntimeError("down")

        registry = ServiceRegistry(
            [
                Service("up", {GET_TEMPERATURE: lambda inputs, instant: [(20.0,)]}),
                Service("down", {GET_TEMPERATURE: down}),
            ]
        )
        registry.invoke_many(GET_TEMPERATURE, ["up", "down", "up"], (), 0)
        metrics = registry.obs.metrics
        outcome = "serena_invocation_outcomes_total"
        assert metrics.value(outcome, outcome="success") == 2
        assert metrics.value(outcome, outcome="failed") == 1
        assert metrics.value(
            "serena_service_health_transitions_total",
            from_state="up",
            to_state="suspect",
        ) == 1


class TestExport:
    def test_snapshot_shape(self):
        obs = Observability()
        obs.record_tick(0.001)
        snap = obs.snapshot()
        assert list(snap) == ["metrics"]
        assert snap["metrics"]["serena_ticks_total"]["series"] == [
            {"labels": {}, "value": 1}
        ]
        json.dumps(snap)  # JSON-serializable end to end

    def test_to_prometheus_includes_tick_histogram(self):
        obs = Observability()
        obs.record_tick(0.001)
        text = obs.to_prometheus()
        assert "# TYPE serena_tick_seconds histogram" in text
        assert "serena_ticks_total 1" in text
