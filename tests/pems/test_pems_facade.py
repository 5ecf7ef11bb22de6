"""Tests for the PEMS facade: wiring, tick ordering, stream sources."""

import pytest

from repro.city.config import SMALL_CITY
from repro.city.scenario import build_city
from repro.devices.prototypes import GET_TEMPERATURE, STANDARD_PROTOTYPES
from repro.devices.scenario import (
    build_rss_scenario,
    build_temperature_surveillance,
    sensors_schema,
    temperatures_schema,
)
from repro.devices.sensors import (
    FleetTelemetryFeeder,
    TemperatureSensor,
    sensor_columns,
)
from repro.errors import SerenaError
from repro.pems.pems import PEMS


@pytest.fixture
def pems():
    system = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        system.environment.declare_prototype(prototype)
    return system


class TestWiring:
    def test_components_share_clock_and_environment(self, pems):
        assert pems.erm.clock is pems.clock
        assert pems.tables.environment is pems.environment
        assert pems.queries.environment is pems.environment
        assert pems.erm.registry is pems.environment.registry

    def test_local_erm_creation_is_idempotent(self, pems):
        a = pems.create_local_erm("floor")
        b = pems.create_local_erm("floor")
        assert a is b
        assert pems.local_erms == {"floor": a}

    def test_custom_lease(self, pems):
        local = pems.create_local_erm("short", lease=2)
        assert local.lease == 2

    def test_an_existing_local_erm_keeps_its_lease(self, pems):
        local = pems.create_local_erm("field")
        assert pems.create_local_erm("field", lease=local.lease) is local
        with pytest.raises(SerenaError, match="lease 6, not 2"):
            pems.create_local_erm("field", lease=2)
        assert local.lease == 6

    def test_tick_and_run(self, pems):
        assert pems.tick() == 1
        assert pems.run(4) == 5
        assert pems.clock.now == 5

    def test_run_negative_rejected(self, pems):
        with pytest.raises(SerenaError):
            pems.run(-1)
        assert pems.clock.now == 0

    def test_describe_includes_queries(self, pems):
        from repro.algebra import scan

        pems.tables.create_relation(sensors_schema())
        pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        text = pems.describe()
        assert "watch: sensors" in text
        assert "-- Continuous queries --" in text


class TestEngineNames:
    """Engine names are validated once, at construction, against the one
    tuple of accepted values — never at the first registration, never as
    a bare KeyError."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda name: PEMS(engine=name),
            lambda name: build_temperature_surveillance(engine=name),
            lambda name: build_rss_scenario(engine=name),
            lambda name: build_city(SMALL_CITY, engine=name),
        ],
        ids=["PEMS", "temperature", "rss", "city"],
    )
    @pytest.mark.parametrize(
        "name",
        [
            "quantum",
            "federated-foo",
            "columnar",
            "federated",
            "federated-processes",
            "federated-threads",
        ],
    )
    def test_unknown_engine_is_a_typed_error(self, build, name):
        with pytest.raises(SerenaError, match=r"expected one of naive, shared\)"):
            build(name)


class TestStreamSources:
    def test_sources_run_before_queries(self, pems):
        """A continuous query at instant τ must see tuples the sources
        pushed at τ."""
        pems.tables.create_relation(temperatures_schema(), infinite=True)
        pems.tables.create_relation(sensors_schema())
        pems.create_local_erm("field").register(
            TemperatureSensor("s1", "office").as_service()
        )
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.add_stream_source(
            FleetTelemetryFeeder(
                pems.environment.registry,
                GET_TEMPERATURE,
                pems.tables,
                "temperatures",
                sensor_columns,
            )
        )
        from repro.algebra import scan

        cq = pems.queries.register_continuous(
            scan(pems.environment, "temperatures").window(1).query(), name="w"
        )
        pems.run(1)
        assert len(cq.last_result.relation) == 1

    def test_execute_ddl_routes_to_table_manager(self, pems):
        results = pems.execute_ddl(
            "EXTENDED RELATION things ( thing SERVICE, label STRING );"
        )
        assert len(results) == 1
        assert "things" in pems.environment


class TestTickOrdering:
    def test_erm_reaps_before_queries_see_the_instant(self, pems):
        """A crashed service's lease expiry and the discovery-table sync
        happen within the same tick, before continuous queries run."""
        pems.tables.create_relation(sensors_schema())
        local = pems.create_local_erm("field", lease=2)
        local.register(TemperatureSensor("s1", "office").as_service())
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        from repro.algebra import scan

        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="sensors-watch"
        )
        pems.run(1)
        assert len(cq.last_result.relation) == 1
        local.crash()
        pems.run(6)
        assert len(cq.last_result.relation) == 0
