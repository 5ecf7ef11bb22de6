"""Experiment S1 — Section 5.2, first experiment: temperature surveillance.

Runs the full scenario timeline (ambient → heating → alerts → hot-plugged
sensor) and prints the alert timeline and per-channel message counts; the
benchmark measures a complete 30-instant run.
"""

from repro.devices.scenario import build_temperature_surveillance

from support import Report


def full_run():
    scenario = build_temperature_surveillance()
    # Phase 1: ambient (no alerts expected).
    scenario.run(5)
    # Phase 2: heat the office; Carla manages it with a 28.0 threshold.
    scenario.sensors["sensor06"].heat(7, 14, peak=15.0)
    # Phase 3: hot-plug a roof sensor and chill the roof below 12.0.
    scenario.run(12)
    extra = scenario.add_sensor("sensor99", "roof", base=15.0)
    extra.heat(scenario.clock.now + 2, scenario.clock.now + 8, peak=-10.0)
    scenario.run(13)
    return scenario


def test_bench_scenario_temperature(benchmark):
    scenario = benchmark(full_run)

    outbox = scenario.outbox
    assert len(outbox) > 0
    # Alerts went only to the office manager (Carla) — the heating phase.
    assert {m.address for m in outbox.messages} == {"carla@elysee.fr"}
    # Cold roof produced photos via the discovery-maintained cameras table.
    photos = scenario.queries["cold-photos"].emitted
    # sensor99 was integrated without restarting any query.
    sensors = scenario.environment.instantaneous("sensors", scenario.clock.now)
    assert "sensor99" in sensors.column("sensor")

    report = Report("scenario_temperature")
    report.table(
        ["metric", "value", "paper behaviour"],
        [
            ["instants simulated", scenario.clock.now, "—"],
            ["stream tuples", len(scenario.environment.relation("temperatures")),
             "periodic localized readings"],
            ["alert messages", len(outbox),
             "alerts start when sensors heated over threshold"],
            ["alert recipients", ", ".join(sorted({m.address for m in outbox.messages})),
             "the manager of the associated area"],
            ["channels used", ", ".join(sorted({m.channel for m in outbox.messages})),
             "mail / IM / SMS per contact"],
            ["photos emitted", len(photos), "stream of photos of cold areas"],
            ["hot-plugged sensors", 1,
             "discovered without stopping the continuous query"],
        ],
        title="Temperature surveillance (Section 5.2, experiment 1)",
    )
    timeline = [
        [m.instant, m.channel, m.address, m.text]
        for m in outbox.messages[:10]
    ]
    if timeline:
        report.table(
            ["t", "channel", "address", "text"],
            timeline,
            title="Alert timeline (first 10)",
        )
    report.emit()


def test_bench_scenario_temperature_steady_state(benchmark):
    """Steady-state throughput: ticks/second with 4 sensors + 2 queries."""
    scenario = build_temperature_surveillance()
    scenario.run(2)
    registry = scenario.environment.registry
    stream = scenario.environment.relation("temperatures")

    def twenty_ticks():
        invocations, tuples = registry.invocation_count, len(stream)
        scenario.run(20)
        return registry.invocation_count - invocations, len(stream) - tuples

    invocations, tuples = benchmark.pedantic(twenty_ticks, rounds=5, iterations=1)
    assert invocations > 0
    assert tuples == 20 * 4
