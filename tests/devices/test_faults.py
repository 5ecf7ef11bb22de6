"""Tests for the deterministic chaos harness."""

import pytest

from repro.devices.faults import FaultInjector, FaultScript, InjectedFault
from repro.devices.prototypes import GET_TEMPERATURE
from repro.devices.sensors import TemperatureSensor
from repro.errors import InvocationError
from repro.model.services import ServiceRegistry


def make_injector(script: FaultScript, seed="chaos") -> FaultInjector:
    sensor = TemperatureSensor("s1", "office")
    return FaultInjector(sensor.as_service(), script, seed=seed)


class TestFaultScript:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultScript(crash_windows=((5, 3),))
        with pytest.raises(ValueError):
            FaultScript(failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultScript(latency_spike_rate=-0.1)

    def test_crash_window_is_half_open(self):
        script = FaultScript(crash_windows=((10, 12),))
        assert script.fault_at("s1", 9, "x") is None
        assert script.fault_at("s1", 10, "x") == "crash"
        assert script.fault_at("s1", 11, "x") == "crash"
        assert script.fault_at("s1", 12, "x") is None

    def test_intermittent_is_deterministic_per_instant(self):
        script = FaultScript(failure_rate=0.4)
        outcomes = [script.fault_at("s1", t, "seed-1") for t in range(100)]
        assert outcomes == [script.fault_at("s1", t, "seed-1") for t in range(100)]
        hits = sum(1 for o in outcomes if o == "intermittent")
        assert 20 <= hits <= 60  # ~40 of 100, deterministic but hash-spread
        # A different seed scripts a different episode.
        assert outcomes != [script.fault_at("s1", t, "seed-2") for t in range(100)]


class TestFaultInjector:
    def test_wrapped_service_keeps_identity(self):
        injector = make_injector(FaultScript())
        wrapped = injector.as_service()
        original = injector.service
        assert wrapped.reference == original.reference
        assert wrapped.prototypes == original.prototypes
        assert wrapped.properties == original.properties

    def test_healthy_instants_pass_through(self):
        injector = make_injector(FaultScript(crash_windows=((10, 20),)))
        registry = ServiceRegistry([injector.as_service()])
        plain = ServiceRegistry([TemperatureSensor("s1", "office").as_service()])
        assert registry.invoke(GET_TEMPERATURE, "s1", (), 5) == plain.invoke(
            GET_TEMPERATURE, "s1", (), 5
        )
        assert injector.faults_injected == {}

    def test_crash_window_raises_invocation_error(self):
        injector = make_injector(FaultScript(crash_windows=((10, 20),)))
        registry = ServiceRegistry([injector.as_service()])
        with pytest.raises(InvocationError) as info:
            registry.invoke(GET_TEMPERATURE, "s1", (), 10)
        assert isinstance(info.value.__cause__, InjectedFault)
        assert injector.faults_injected == {"crash": 1}

    def test_malformed_window_trips_schema_validation(self):
        injector = make_injector(FaultScript(malformed_windows=((3, 4),)))
        registry = ServiceRegistry([injector.as_service()])
        with pytest.raises(InvocationError) as info:
            registry.invoke(GET_TEMPERATURE, "s1", (), 3)
        assert "invalid output tuple" in str(info.value)
        assert injector.faults_injected == {"malformed": 1}

    def test_latency_spike_faults_as_timeout(self):
        injector = make_injector(FaultScript(latency_spike_rate=1.0))
        registry = ServiceRegistry([injector.as_service()])
        with pytest.raises(InvocationError):
            registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        assert injector.faults_injected == {"timeout": 1}

    def test_same_instant_same_outcome_regardless_of_attempts(self):
        """Section 3.2: re-invocation at the same instant must behave
        identically — faults depend on the instant, never on call counts."""
        injector = make_injector(FaultScript(failure_rate=0.5), seed=7)
        registry = ServiceRegistry([injector.as_service()])
        for instant in range(30):
            outcomes = []
            for _ in range(3):
                try:
                    registry.invoke(GET_TEMPERATURE, "s1", (), instant)
                    outcomes.append("ok")
                except InvocationError:
                    outcomes.append("fail")
            assert len(set(outcomes)) == 1
