"""Differential coverage of semantic substitution: a sensor dies for
good mid-run (``crash_permanent``), yet the surveillance queries keep
reporting every single instant because a spare environmental station is
substituted in — and the naive oracle and every engine of
:mod:`tests.engines` agree tick-for-tick on relations,
substitution bindings, failover tables and rebind history.

The crash instant itself is served by the precomputed failover table;
from the next instant on the sticky binding routes the invocations, so
the ``temperatures`` stream never misses a tick for the dead sensor
(the "zero missed ticks" acceptance criterion of DESIGN.md §13).
"""

from repro.devices.faults import FaultScript
from repro.devices.scenario import build_temperature_surveillance
from repro.model.invocation_policy import InvocationPolicy
from repro.model.substitution import SubstitutionRule

from tests.engines import NAIVE, PAIRS
from tests.exec.test_differential import TICKS, action_strings, outbox_key

CRASH_AT = 20
POLICY = InvocationPolicy(failure_threshold=1)

#: sensor22 (roof) dies permanently at instant 20; the spare roof
#: station serves projected ``getEnvReading`` readings in its stead.
FAULTS = {"sensor22": FaultScript(crash_at=CRASH_AT)}
SPARES = (("spare-roof", "roof", 15.5),)
RULES = (
    SubstitutionRule(
        "getTemperature", "spare-roof", "getEnvReading", reference="sensor22"
    ),
)


def drive_substitution_scenario(engine):
    scenario = build_temperature_surveillance(
        engine=engine,
        policy=POLICY,
        sensor_faults=FAULTS,
        fault_seed="sub-diff",
        spare_sensors=SPARES,
        substitutions=RULES,
    )
    pems = scenario.pems
    snapshots = []
    for _ in range(TICKS):
        now = scenario.run(1)
        if now == 12:
            scenario.add_sensor("sensor90", "office", base=31.0)
        if now == 30:
            scenario.remove_sensor("sensor90")
        report = pems.erm.substitution_report()
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
                "fed_this_tick": sorted(
                    row[0]
                    for row in pems.environment.instantaneous(
                        "temperatures", pems.clock.now
                    )
                    if row[3] == now
                ),
                "parked": pems.erm.parked,
                "health": {
                    ref: pems.environment.registry.health.state(ref).value
                    for ref in sorted(pems.environment.registry.health.known())
                },
                "bindings": report["bindings"],
                "failover": report["failover"],
                "history": report["history"],
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


def test_substitution_differential_zero_missed_ticks():
    """Every engine agrees with the oracle through a permanent crash; the
    dead sensor's readings keep flowing every instant via the substitute."""
    runs = {
        engine: drive_substitution_scenario(engine)
        for engine in (NAIVE, *PAIRS)
    }
    assert_scenarios_agree(runs[NAIVE], [runs[engine] for engine in PAIRS])
    scenario, snaps = runs[NAIVE]

    # The crash really was permanent (not a transient window).
    injector = scenario.injectors["sensor22"]
    assert injector.faults_injected.get("crash_permanent", 0) > 0

    # Zero missed ticks: sensor22 feeds the temperatures stream at every
    # single instant — before the crash on its own, at the crash instant
    # via the failover table, afterwards via the sticky binding.
    for instant, snap in enumerate(snaps, start=1):
        assert "sensor22" in snap["fed_this_tick"], f"missed tick {instant}"

    # The sweep installed the binding one instant after the quarantine;
    # sensor22 never parked and its discovery row never left the extent.
    final = snaps[-1]
    assert final["bindings"] == {
        "getTemperature[sensor22]": "specializes spare-roof/getEnvReading"
    }
    assert final["history"][0].startswith("@21 getTemperature[sensor22]")
    assert "(quarantine)" in final["history"][0]
    assert all(not snap["parked"] for snap in snaps)
    assert all("sensor22" in snap["sensors"] for snap in snaps)

    # Before the crash the pair sat in the precomputed failover table;
    # once bound it left the table.
    before = snaps[CRASH_AT - 2]
    assert before["failover"] == {
        "getTemperature[sensor22]": ["specializes spare-roof/getEnvReading"]
    }
    assert before["bindings"] == {}
    assert final["failover"] == {}

    # Not vacuous: alerts still flowed after the crash.
    assert scenario.outbox.messages
