"""Lifecycle of semantic substitution bindings (DESIGN.md §13).

The interplay under test: a quarantined-then-substituted service must
*stay* substituted — re-admission on probation never reclaims a binding
that was rebound away; only the substitute's own failure (or an explicit
goodbye) releases it.  Alongside: the lease-expiry rebind path with its
self-renewing lease, and failover serving the crash instant itself.
"""

import pytest

from repro.algebra import scan
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import STANDARD_PROTOTYPES, GET_ENV_READING
from repro.devices.scenario import sensors_schema
from repro.devices.sensors import EnvironmentalSensor, TemperatureSensor
from repro.model.invocation_policy import (
    QUARANTINE_BACKOFF,
    HealthState,
    InvocationPolicy,
)
from repro.model.substitution import SubstitutionRule
from repro.pems.pems import PEMS

POLICY = InvocationPolicy(failure_threshold=1)
#: s2 dies for good at instant 3.
PERMANENT = FaultScript(crash_at=3)
#: s2 is down over [3, 6) and then recovers — the probation scenario.
TEMPORARY = FaultScript(crash_windows=((3, 6),))

RULE = SubstitutionRule(
    "getTemperature", "spare", "getEnvReading", reference="s2"
)


def build_pems(script=PERMANENT, policy=POLICY, with_spare=True, rules=(RULE,)):
    pems = PEMS(engine="shared", policy=policy)
    for prototype in STANDARD_PROTOTYPES:
        pems.environment.declare_prototype(prototype)
    pems.environment.declare_prototype(GET_ENV_READING)
    pems.tables.create_relation(sensors_schema())
    field = pems.create_local_erm("field")
    field.register(TemperatureSensor("s1", "office").as_service())
    faulty = FaultInjector(
        TemperatureSensor("s2", "kitchen", base=30.0).as_service(),
        script,
        seed="sub",
    )
    field.register(faulty.as_service())
    spare = EnvironmentalSensor("spare", "kitchen", base=12.0)
    if with_spare:
        field.register(spare.as_service())
    for rule in rules:
        pems.declare_substitution(rule)
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    # β∞ re-invokes every sensor at every instant: it both observes the
    # crash (driving the health tracker) and carries per-instant readings
    # for the zero-missed-ticks assertions.
    cq = pems.queries.register_continuous(
        scan(pems.environment, "sensors")
        .invoke_stream("getTemperature")
        .query(),
        name="probe",
    )
    return pems, cq, spare


def sensors_extent(pems):
    rows = pems.environment.instantaneous("sensors", pems.clock.now)
    return sorted(row[0] for row in rows)


def reading_of(cq, reference):
    rows = [row for row in cq.last_result.relation if row[0] == reference]
    assert len(rows) == 1, rows
    return rows[-1][-1]


def bound_keys(pems):
    return sorted(pems.environment.registry.substitutions.bindings)


class TestQuarantineRebind:
    def test_crash_heals_in_place_with_zero_missed_ticks(self):
        pems, cq, spare = build_pems()
        pems.run(2)
        assert sensors_extent(pems) == ["s1", "s2"]
        for instant in range(3, 15):
            pems.run(1)
            # Every single instant of the outage reports a reading for s2
            # — instant 3 itself via the failover table, 4+ via the
            # sticky binding.
            assert sorted(row[0] for row in cq.last_result.relation) == [
                "s1",
                "s2",
            ], f"missed tick at {instant}"
        # The binding was installed by the sweep one instant after the
        # quarantine, and s2's rows now carry the spare's readings.
        assert bound_keys(pems) == [("getTemperature", "s2")]
        assert reading_of(cq, "s2") == pytest.approx(
            spare.temperature(pems.clock.now), abs=1e-9
        )
        # Healed in place: never parked, discovery rows intact.
        assert pems.erm.parked == frozenset()
        assert sensors_extent(pems) == ["s1", "s2"]
        kinds = [(e.kind, e.service.reference) for e in pems.erm.events]
        assert ("rebound", "s2") in kinds
        assert ("quarantined", "s2") not in kinds

    def test_rebind_latency_within_backoff_plus_one(self):
        pems, _, _ = build_pems()
        pems.run(20)
        report = pems.erm.substitution_report()
        assert report["history"], report
        first = report["history"][0]
        # Crash at 3 trips the threshold at 3; the sweep rebinds at 4 —
        # one tick, far below QUARANTINE_BACKOFF + 1.
        assert first.startswith("@4 getTemperature[s2]")
        assert "(quarantine)" in first

    def test_without_rules_quarantine_parks_as_before(self):
        pems, cq, _ = build_pems(rules=())
        pems.run(6)
        assert pems.erm.parked == frozenset({"s2"})
        assert sensors_extent(pems) == ["s1"]


class TestStickyProbationInterplay:
    def test_recovered_original_does_not_reclaim_binding(self):
        pems, cq, spare = build_pems(script=TEMPORARY)
        pems.run(30)
        # The crash window ended at 6; an unsubstituted s2 would have been
        # re-admitted at 3 + QUARANTINE_BACKOFF (11).  Bound, it stays
        # frozen out: never probed, never back on probation, readings
        # still the spare's.
        assert bound_keys(pems) == [("getTemperature", "s2")]
        assert pems.environment.registry.health.state("s2") is (
            HealthState.QUARANTINED
        )
        assert pems.erm.parked == frozenset()
        assert reading_of(cq, "s2") == pytest.approx(
            spare.temperature(pems.clock.now), abs=1e-9
        )
        kinds = [(e.kind, e.service.reference) for e in pems.erm.events]
        assert ("quarantined", "s2") not in kinds

    def test_substitute_failure_releases_then_probation_self_heals(self):
        pems, cq, _ = build_pems(script=FaultScript(crash_windows=((3, 14),)))
        pems.run(10)  # bound at 4; s2 still down until 14
        assert bound_keys(pems) == [("getTemperature", "s2")]
        # The spare says goodbye: the sweep drops the binding at 11; the
        # immediate half-open probe still fails (fresh quarantine stamp),
        # so with no other candidate s2 finally parks at 12 — and,
        # backoff later, re-enters on probation with the window over.
        pems.local_erms["field"].deregister("spare")
        pems.run(2)
        assert bound_keys(pems) == []
        assert pems.erm.parked == frozenset({"s2"})
        released = 11 + QUARANTINE_BACKOFF  # re-quarantined at 11
        pems.run(released - 1 - pems.clock.now)
        assert pems.erm.parked == frozenset({"s2"})
        pems.run(6)  # the release instant and five more
        assert pems.erm.parked == frozenset()
        assert "s2" in pems.environment.registry
        assert sensors_extent(pems) == ["s1", "s2"]
        # Readings are s2's own again (base 30, not the spare's 12).
        assert reading_of(cq, "s2") > 20.0
        history = pems.erm.substitution_report()["history"]
        assert any("(substitute-failed)" in line for line in history)

    def test_goodbye_of_the_original_releases_the_binding(self):
        pems, _, _ = build_pems()
        pems.run(10)
        assert bound_keys(pems) == [("getTemperature", "s2")]
        pems.local_erms["field"].deregister("s2")
        pems.run(1)
        assert bound_keys(pems) == []
        assert "s2" not in pems.environment.registry
        history = pems.erm.substitution_report()["history"]
        assert any("(left)" in line for line in history)


class TestLeaseExpiryRebind:
    def test_silent_crash_rebinds_and_self_renews_the_lease(self):
        pems = PEMS(engine="shared", policy=POLICY)
        for prototype in STANDARD_PROTOTYPES:
            pems.environment.declare_prototype(prototype)
        pems.environment.declare_prototype(GET_ENV_READING)
        pems.tables.create_relation(sensors_schema())
        # Two Local ERMs: the sensor's crashes silently (no BYE), the
        # spare's stays up.
        dying = pems.create_local_erm("dying", lease=4)
        dying.register(TemperatureSensor("s2", "kitchen").as_service())
        depot = pems.create_local_erm("depot")
        depot.register(EnvironmentalSensor("spare", "kitchen").as_service())
        pems.declare_substitution(RULE)
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.run(2)
        assert sensors_extent(pems) == ["s2"]
        dying.crash()
        pems.run(10)
        # The lease ran out unrenewed; instead of expiring, s2 was
        # rebound and its lease self-renews while bound.
        assert bound_keys(pems) == [("getTemperature", "s2")]
        assert "s2" in pems.environment.registry
        assert sensors_extent(pems) == ["s2"]
        history = pems.erm.substitution_report()["history"]
        assert any("(lease-expiry)" in line for line in history)
        assert all(e.kind != "expired" for e in pems.erm.events)


class TestFailoverTable:
    def test_failover_precomputed_for_substitutable_pairs(self):
        pems, _, _ = build_pems()
        pems.run(2)  # before the crash
        report = pems.erm.substitution_report()
        assert report["failover"] == {
            "getTemperature[s2]": ["specializes spare/getEnvReading"]
        }
        assert report["bindings"] == {}

    def test_bound_pairs_leave_the_failover_table(self):
        pems, _, _ = build_pems()
        pems.run(10)
        report = pems.erm.substitution_report()
        assert report["failover"] == {}
        assert list(report["bindings"]) == ["getTemperature[s2]"]
