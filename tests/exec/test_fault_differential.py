"""Differential coverage under fault scripts: the naive oracle and every
engine of :mod:`tests.engines` must agree tick-for-tick while scripted
chaos (crash
windows, intermittent errors, malformed outputs, latency spikes) plays
against the §5.2 surveillance scenario — including its native
``messenger_failure_rate`` flakiness.

The fault scripts are pure functions of ``(seed, reference, instant)``
(Section 3.2 determinism), so every engine sees the *same* environment;
any divergence is an engine bug, not chaos.
"""

from repro.devices.faults import FaultScript
from repro.devices.scenario import build_temperature_surveillance
from repro.model.invocation_policy import InvocationPolicy

from tests.engines import NAIVE, PAIRS
from tests.exec.test_differential import TICKS, action_strings, outbox_key

#: One fault mode per sensor, overlapping the churn script below.
FAULTS = {
    "sensor01": FaultScript(crash_windows=((10, 22), (35, 40))),
    "sensor06": FaultScript(failure_rate=0.25),
    "sensor07": FaultScript(malformed_windows=((15, 24),)),
    "sensor22": FaultScript(latency_spike_rate=0.15),
}


def drive_fault_scenario(engine, policy=None):
    scenario = build_temperature_surveillance(
        engine=engine,
        messenger_failure_rate=0.2,
        sensor_faults=FAULTS,
        fault_seed="fault-diff",
        policy=policy,
    )
    pems = scenario.pems
    snapshots = []
    for _ in range(TICKS):
        now = scenario.run(1)
        if now == 12:
            scenario.add_sensor("sensor90", "office", base=31.0)
        if now == 30:
            scenario.remove_sensor("sensor90")
        if now == 44:
            pems.create_local_erm("gateway").deregister("jabber")
        snapshots.append(
            {
                "relations": {
                    name: cq.last_result.relation.tuples
                    for name, cq in scenario.queries.items()
                },
                "sensors": sorted(
                    row[0]
                    for row in pems.environment.instantaneous(
                        "sensors", pems.clock.now
                    )
                ),
                "failures": len(pems.queries.failures),
                "parked": pems.erm.parked,
                "health": {
                    ref: pems.environment.registry.health.state(ref).value
                    for ref in sorted(pems.environment.registry.health.known())
                },
            }
        )
    return scenario, snapshots


def assert_scenarios_agree(reference, others):
    ref_scenario, ref_snaps = reference
    for scenario, snaps in others:
        for instant, (a, b) in enumerate(zip(ref_snaps, snaps), start=1):
            assert a == b, f"tick {instant} diverged"
        for name in ref_scenario.queries:
            cq_a = ref_scenario.queries[name]
            cq_b = scenario.queries[name]
            assert sorted(cq_b.emitted) == sorted(cq_a.emitted), name
            assert action_strings(cq_b.actions) == action_strings(
                cq_a.actions
            ), name
        assert outbox_key(scenario.outbox) == outbox_key(ref_scenario.outbox)


def test_fault_scenario_differential():
    """Permissive policy: chaos flows through skip-paths; every engine
    agrees with the oracle on every relation, action, alert and failure
    count."""
    runs = {engine: drive_fault_scenario(engine) for engine in (NAIVE, *PAIRS)}
    assert_scenarios_agree(runs[NAIVE], [runs[engine] for engine in PAIRS])
    # The chaos had observable consequences (not a vacuous agreement):
    # faults were injected, yet alerts still flowed from healthy sensors.
    assert runs[NAIVE][0].outbox.messages
    injector = runs[NAIVE][0].injectors["sensor01"]
    assert injector.faults_injected.get("crash", 0) > 0
    assert runs[NAIVE][0].injectors["sensor07"].faults_injected.get(
        "malformed", 0
    ) > 0


def test_fault_scenario_differential_with_quarantine_policy():
    """failure_threshold=1 trips on the first failure whatever the
    per-instant attempt count, so the quarantine lifecycle (removal,
    parking, re-admission) is engine-invariant and must agree too."""
    policy = InvocationPolicy(failure_threshold=1, quarantine_backoff=8)
    runs = {
        engine: drive_fault_scenario(engine, policy=policy)
        for engine in (NAIVE, *PAIRS)
    }
    assert_scenarios_agree(runs[NAIVE], [runs[engine] for engine in PAIRS])
    _, snaps = runs[NAIVE]
    # Quarantines actually happened and were later released.
    assert any(snap["parked"] for snap in snaps)
    assert any(
        snap["health"].get("sensor01") == "quarantined" for snap in snaps
    )
    quarantined_events = [
        e
        for e in runs[NAIVE][0].pems.erm.events
        if e.kind == "quarantined"
    ]
    appeared_after = [
        e
        for e in runs[NAIVE][0].pems.erm.events
        if e.kind == "appeared" and e.instant > quarantined_events[0].instant
    ]
    assert quarantined_events and appeared_after
