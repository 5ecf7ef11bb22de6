"""Experiment X4 — streaming binding patterns (β∞, the §7 future work).

Compares the two ways of producing the ``temperatures`` stream:

* **device feeder** (the paper's §5.2 setup, and our scenario default):
  an out-of-band process polls the sensors each tick and inserts into a
  journaled stream relation;
* **declarative β∞**: ``W[1](β∞_getTemperature(sensors))`` — the stream is
  a query over the discovery-maintained sensors table, with no feeder.

Both must produce the same per-instant readings; the bench measures the
per-tick cost of each and shows that β∞ follows discovery automatically.
"""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.prototypes import GET_TEMPERATURE, STANDARD_PROTOTYPES
from repro.devices.scenario import sensors_schema, temperatures_schema
from repro.devices.sensors import (
    FleetTelemetryFeeder,
    TemperatureSensor,
    sensor_columns,
)
from repro.pems.pems import PEMS

from support import Report

SENSORS = 20


def build(declarative: bool):
    pems = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        pems.environment.declare_prototype(prototype)
    pems.tables.create_relation(sensors_schema(with_timestamp=True))
    field = pems.create_local_erm("field")
    for i in range(SENSORS):
        field.register(
            TemperatureSensor(f"sensor{i:02d}", f"room{i % 4}", 20.0).as_service()
        )
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    if declarative:
        stream_query = (
            scan(pems.environment, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query("readings")
        )
        cq = pems.queries.register_continuous(stream_query)
        return pems, cq
    pems.tables.create_relation(temperatures_schema(), infinite=True)
    pems.add_stream_source(
        FleetTelemetryFeeder(
            pems.environment.registry,
            GET_TEMPERATURE,
            pems.tables,
            "temperatures",
            sensor_columns,
        )
    )
    windowed = (
        scan(pems.environment, "temperatures").window(1).query("readings")
    )
    cq = pems.queries.register_continuous(windowed)
    return pems, cq


@pytest.mark.parametrize("mode", ["feeder", "declarative"])
def test_bench_x4_stream_production(benchmark, mode):
    pems, cq = build(declarative=(mode == "declarative"))
    pems.run(2)  # warm up

    benchmark(pems.tick)
    assert cq.last_result is not None
    assert len(cq.last_result.relation) == SENSORS


def test_bench_x4_equivalent_readings(benchmark):
    """Same sensors, same instants → identical readings on both paths."""

    def compare():
        feeder_pems, feeder_cq = build(declarative=False)
        declarative_pems, declarative_cq = build(declarative=True)
        mismatches = 0
        for _ in range(10):
            feeder_pems.tick()
            declarative_pems.tick()
            feeder_rows = {
                (m["sensor"], m["location"], m["temperature"])
                for m in feeder_cq.last_result.relation.to_mappings()
            }
            declarative_rows = {
                (m["sensor"], m["location"], m["temperature"])
                for m in declarative_cq.last_result.relation.to_mappings()
            }
            if feeder_rows != declarative_rows:
                mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert mismatches == 0


def test_bench_x4_follows_discovery(benchmark):
    """β∞ picks up hot-plugged and crashed sensors with no extra plumbing."""

    def run():
        pems, cq = build(declarative=True)
        pems.run(2)
        counts = [len(cq.last_result.relation)]
        pems.create_local_erm("field").register(
            TemperatureSensor("sensor99", "room9").as_service()
        )
        pems.run(1)
        counts.append(len(cq.last_result.relation))
        pems.create_local_erm("field").deregister("sensor99")
        pems.run(1)
        counts.append(len(cq.last_result.relation))
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert counts == [SENSORS, SENSORS + 1, SENSORS]

    report = Report("x4_stream_binding")
    report.table(
        ["phase", "readings per instant"],
        [
            ["steady state", counts[0]],
            ["after hot-plugging sensor99", counts[1]],
            ["after sensor99 leaves", counts[2]],
        ],
        title="W[1](β∞ getTemperature(sensors)) follows service discovery",
    )
    report.add(
        "The declarative stream needs no feeder process: the §7 streaming\n"
        "binding pattern makes service-provided streams first-class in the\n"
        "algebra, and the discovery query keeps its operand table current."
    )
    report.emit()
