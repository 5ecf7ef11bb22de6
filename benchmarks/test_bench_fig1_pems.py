"""Experiment F1 — Figure 1: the PEMS architecture.

Boots the full Figure 1 topology (two Local ERMs, the core ERM over the
discovery bus, the extended table manager, the query processor), measures
boot time, discovery latency (announce → queryable row) and per-tick cycle
cost, and prints the discovered-service table.
"""

from repro.devices.prototypes import STANDARD_PROTOTYPES
from repro.devices.scenario import build_temperature_surveillance, sensors_schema
from repro.devices.sensors import TemperatureSensor
from repro.pems.pems import PEMS

from support import Report


def boot_figure1():
    """A minimal Figure 1 deployment, built from scratch."""
    pems = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        pems.environment.declare_prototype(prototype)
    pems.tables.create_relation(sensors_schema())
    floor1 = pems.create_local_erm("floor-1")
    floor2 = pems.create_local_erm("floor-2")
    for i in range(8):
        erm = floor1 if i % 2 == 0 else floor2
        erm.register(
            TemperatureSensor(f"sensor{i:02d}", f"room{i % 4}").as_service()
        )
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    return pems


def test_bench_fig1_boot(benchmark):
    pems = benchmark(boot_figure1)
    assert len(pems.environment.registry) == 8
    table = pems.environment.instantaneous("sensors", pems.clock.now)
    assert len(table) == 8


def test_bench_fig1_discovery_latency(benchmark):
    """Instants from a service's announcement to its appearance in the
    discovery-maintained table (0 on the announce tick, by design)."""

    def announce_and_measure():
        pems = boot_figure1()
        pems.run(1)
        pems.create_local_erm("floor-1").register(
            TemperatureSensor("sensor99", "room9").as_service()
        )
        appeared_at = None
        for _ in range(5):
            pems.tick()
            table = pems.environment.instantaneous("sensors", pems.clock.now)
            if "sensor99" in table.column("sensor"):
                appeared_at = pems.clock.now
                break
        return appeared_at, pems

    appeared_at, pems = benchmark(announce_and_measure)
    assert appeared_at is not None
    assert appeared_at - 1 <= 1  # visible by the tick after the announce


def test_bench_fig1_tick_cycle(benchmark):
    """One full PEMS cycle: stream feed + discovery sync + 2 continuous
    queries over the standard scenario."""
    scenario = build_temperature_surveillance()
    scenario.run(2)  # warm up
    # Counted at the warm-up instant: the timed rounds below tick the
    # clock as many times as the benchmark runs, so counting after them
    # would make the report depend on the round count.
    env = scenario.environment
    warm = scenario.clock.now
    rows = [[name, len(env.instantaneous(name, warm))] for name in env.relation_names]

    benchmark(scenario.pems.tick)

    report = Report("fig1_pems")
    report.add("Discovered services (via two Local ERMs):")
    report.table(["relation", "rows"], rows, title="XD-Relations after warm-up")
    report.add(
        "Catalog excerpt:\n"
        + "\n".join(env.describe().splitlines()[:20])
    )
    report.emit()
