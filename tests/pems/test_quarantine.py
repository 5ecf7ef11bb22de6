"""Quarantine-as-lease-expiry: a service crossing its failure threshold
leaves the environment's XD-Relations and is re-admitted on recovery,
while on_error="degrade" queries keep serving healthy providers.

Failure observation rides on a streaming binding pattern (β∞ re-invokes
every instant, like the temperatures feed of §5.2); the plain β query
demonstrates graceful degradation — its cached rows for the quarantined
provider are dropped by the discovery sync and restored on re-admission.
"""

import pytest

from repro.algebra import scan
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import GET_TEMPERATURE, STANDARD_PROTOTYPES
from repro.devices.scenario import sensors_schema
from repro.devices.sensors import TemperatureSensor
from repro.model.invocation_policy import HealthState, InvocationPolicy
from repro.pems.pems import PEMS

POLICY = InvocationPolicy(failure_threshold=1, quarantine_backoff=6)
CRASH = FaultScript(crash_windows=((3, 6),))


def build_pems(engine="shared", policy=POLICY, script=CRASH):
    pems = PEMS(engine=engine, policy=policy)
    for prototype in STANDARD_PROTOTYPES:
        pems.environment.declare_prototype(prototype)
    pems.tables.create_relation(sensors_schema())
    field = pems.create_local_erm("field")
    field.register(TemperatureSensor("s1", "office").as_service())
    faulty = FaultInjector(
        TemperatureSensor("s2", "kitchen").as_service(), script, seed="q"
    )
    field.register(faulty.as_service())
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    # β∞ re-invokes every sensor at every instant: the probe that makes
    # the crash window visible to the health tracker.
    pems.queries.register_continuous(
        scan(pems.environment, "sensors")
        .invoke_stream("getTemperature", on_error="degrade")
        .query(),
        name="probe",
    )
    return pems, faulty


def sensors_extent(pems):
    rows = pems.environment.instantaneous("sensors", pems.clock.now)
    return sorted(row[0] for row in rows)


@pytest.mark.parametrize("engine", ["shared", "naive"])
class TestQuarantineLifecycle:
    def test_removed_within_one_lease_and_readmitted(self, engine):
        pems, _ = build_pems(engine)
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors")
            .invoke("getTemperature", on_error="degrade")
            .query(),
            name="temps",
        )
        pems.run(2)
        assert sensors_extent(pems) == ["s1", "s2"]
        assert len(cq.last_result.relation) == 2

        # Crash window [3, 6): the probe's failure at 3 trips the
        # threshold; the ERM sweeps the quarantine at 4 — well within one
        # lease period (6).
        pems.run(1)  # instant 3
        assert pems.environment.registry.health.state("s2") is (
            HealthState.QUARANTINED
        )
        pems.run(1)  # instant 4: swept out of registry + sensors extent
        assert sensors_extent(pems) == ["s1"]
        assert pems.erm.parked == frozenset({"s2"})
        kinds = [(e.kind, e.service.reference) for e in pems.erm.events]
        assert ("quarantined", "s2") in kinds

        # Degrade: the query keeps emitting the healthy provider's rows
        # throughout the outage.
        assert [row[0] for row in cq.last_result.relation] == ["s1"]

        # Re-admission: quarantined_at=3, backoff=6 → released at 9; the
        # crash window ended at 6, so the retry succeeds.
        pems.run(5)  # instants 5..9
        assert pems.erm.parked == frozenset()
        assert sensors_extent(pems) == ["s1", "s2"]
        appeared = [
            e.instant
            for e in pems.erm.events
            if e.kind == "appeared" and e.service.reference == "s2"
        ]
        assert appeared[-1] == 9
        assert sorted(row[0] for row in cq.last_result.relation) == ["s1", "s2"]
        assert pems.environment.registry.health.state("s2") is HealthState.UP

    def test_healthy_rows_flow_every_instant_of_the_outage(self, engine):
        pems, _ = build_pems(engine)
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors")
            .invoke("getTemperature", on_error="degrade")
            .query(),
            name="temps",
        )
        for _ in range(12):
            pems.run(1)
            assert "s1" in [row[0] for row in cq.last_result.relation]


class TestQuarantineMechanics:
    def test_alive_announcements_suppressed_while_parked(self):
        pems, _ = build_pems()
        pems.run(4)  # quarantined at 3, swept at 4
        assert pems.erm.parked == frozenset({"s2"})
        # The field Local ERM keeps renewing s2 (it knows nothing of the
        # quarantine), yet s2 must stay out of the registry until release.
        pems.run(2)  # a renewal cadence passes
        assert "s2" not in pems.environment.registry
        assert pems.erm.parked == frozenset({"s2"})

    def test_bye_while_parked_drops_the_service_for_good(self):
        pems, _ = build_pems()
        pems.run(4)
        assert pems.erm.parked == frozenset({"s2"})
        pems.local_erms["field"].deregister("s2")
        pems.run(1)
        assert pems.erm.parked == frozenset()
        assert "s2" not in pems.environment.registry.health.known()
        pems.run(8)  # long past the would-be release: never re-admitted
        assert "s2" not in pems.environment.registry

    def test_still_broken_service_requarantines_on_probe(self):
        pems, _ = build_pems(
            policy=InvocationPolicy(failure_threshold=1, quarantine_backoff=3),
            script=FaultScript(crash_windows=((0, 1000),)),
        )
        # A degrade β query alongside the probe: its s2 tuple fails once
        # per re-admission, is parked, and never spams retries.
        pems.queries.register_continuous(
            scan(pems.environment, "sensors")
            .invoke("getTemperature", on_error="degrade")
            .query(),
            name="temps",
        )
        pems.run(20)
        # The service cycles: probe fails → re-quarantined → parked again.
        quarantines = [
            e.instant for e in pems.erm.events if e.kind == "quarantined"
        ]
        assert len(quarantines) >= 3
        assert pems.environment.registry.health.state("s2") is (
            HealthState.QUARANTINED
        )
        assert pems.queries.failures == []  # degrade/skip: never fatal

    def test_no_policy_means_no_quarantine(self):
        pems, _ = build_pems(policy=None)
        pems.run(12)
        assert pems.erm.parked == frozenset()
        assert all(e.kind != "quarantined" for e in pems.erm.events)
        assert sensors_extent(pems) == ["s1", "s2"]


class TestProvidersIndexFollowsTheErm:
    """The registry's providers index (and the discovery sync keyed on
    ``topology_version``) under the ERM's own membership changes."""

    def providers(self, pems):
        return [s.reference for s in pems.erm.available(GET_TEMPERATURE)]

    def test_quarantine_park_and_readmission(self):
        pems, _ = build_pems()
        pems.run(2)
        assert self.providers(pems) == ["s1", "s2"]
        pems.run(2)  # failure at 3, swept at 4
        assert pems.erm.parked == frozenset({"s2"})
        assert self.providers(pems) == ["s1"]
        assert sensors_extent(pems) == ["s1"]
        pems.run(5)  # released at 9
        assert self.providers(pems) == ["s1", "s2"]
        assert sensors_extent(pems) == ["s1", "s2"]

    def test_local_erm_deregister_and_reregister(self):
        pems, _ = build_pems(script=FaultScript())
        field = pems.local_erms["field"]
        pems.run(2)
        assert self.providers(pems) == ["s1", "s2"]
        s1 = pems.environment.registry.get("s1")
        field.deregister("s1")
        assert self.providers(pems) == ["s2"]
        pems.run(1)
        assert sensors_extent(pems) == ["s2"]
        field.register(s1)
        assert self.providers(pems) == ["s1", "s2"]
        pems.run(1)
        assert sensors_extent(pems) == ["s1", "s2"]
