"""Tests for the discovery bus, Local ERMs and the core ERM (Figure 1)."""

import time

import pytest

from repro.continuous.time import VirtualClock
from repro.devices.prototypes import GET_TEMPERATURE
from repro.devices.sensors import TemperatureSensor
from repro.errors import InvocationError, UnknownServiceError
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import Service, ServiceRegistry
from repro.pems.discovery import Announcement, AnnouncementKind, DiscoveryBus
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.local_erm import LocalEnvironmentResourceManager


@pytest.fixture
def rig():
    clock = VirtualClock()
    bus = DiscoveryBus()
    erm = EnvironmentResourceManager(bus, clock, ServiceRegistry())
    local = LocalEnvironmentResourceManager("floor-1", bus, clock, lease=4)
    return clock, bus, erm, local


def advance(instants, clock, erm, *local_erms):
    """Advance the clock ``instants`` times, running the bare components'
    phases in :meth:`repro.pems.pems.PEMS.tick` order at each instant:
    the core ERM's sweep, then every Local ERM's renewal."""
    for _ in range(instants):
        instant = clock.tick()
        erm.sweep(instant)
        for local in local_erms:
            local.renew(instant)


def sensor_service(reference="sensor01", location="corridor"):
    return TemperatureSensor(reference, location).as_service()


class TestBus:
    def test_publish_reaches_subscribers(self):
        bus = DiscoveryBus()
        seen = []
        bus.subscribe(seen.append)
        ann = Announcement(AnnouncementKind.ALIVE, sensor_service(), "erm", 4, 0)
        bus.publish(ann)
        assert seen == [ann]
        assert bus.log == [ann]

    def test_unsubscribe(self):
        bus = DiscoveryBus()
        seen = []
        listener = seen.append
        bus.subscribe(listener)
        bus.unsubscribe(listener)
        bus.publish(Announcement(AnnouncementKind.ALIVE, sensor_service(), "e", 4, 0))
        assert seen == []


class TestRegistration:
    def test_register_announces_and_erm_discovers(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        assert "sensor01" in erm.registry
        assert erm.events[0].kind == "appeared"

    def test_deregister_sends_bye(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        local.deregister("sensor01")
        assert "sensor01" not in erm.registry
        assert erm.events[-1].kind == "left"

    def test_deregister_unknown_raises(self, rig):
        _, _, _, local = rig
        with pytest.raises(UnknownServiceError):
            local.deregister("ghost")

    def test_services_listing_sorted(self, rig):
        _, _, _, local = rig
        local.register(sensor_service("b"))
        local.register(sensor_service("a"))
        assert [s.reference for s in local.services] == ["a", "b"]


class TestLeases:
    def test_renewal_keeps_service_alive(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        advance(20, clock, erm, local)  # far past the original lease: renewals keep it up
        assert "sensor01" in erm.registry

    def test_crash_expires_after_lease(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        local.crash()
        advance(2, clock, erm, local)
        assert "sensor01" in erm.registry  # lease not over yet
        advance(10, clock, erm, local)
        assert "sensor01" not in erm.registry
        assert any(e.kind == "expired" for e in erm.events)

    def test_recovery_reannounces(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        local.crash()
        advance(12, clock, erm, local)
        assert "sensor01" not in erm.registry
        local.recover()
        advance(2, clock, erm, local)
        assert "sensor01" in erm.registry

    def test_available_by_prototype(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service("s2"))
        local.register(sensor_service("s1"))
        providers = erm.available(GET_TEMPERATURE)
        assert [s.reference for s in providers] == ["s1", "s2"]


class TestDiscoveryListeners:
    def test_listener_sees_all_events(self, rig):
        clock, bus, erm, local = rig
        events = []
        erm.on_discovery(events.append)
        local.register(sensor_service())
        local.deregister("sensor01")
        assert [e.kind for e in events] == ["appeared", "left"]

    def test_reannouncement_is_not_a_new_appearance(self, rig):
        clock, bus, erm, local = rig
        events = []
        erm.on_discovery(events.append)
        local.register(sensor_service())
        advance(10, clock, erm, local)  # several renewals
        assert [e.kind for e in events] == ["appeared"]


class TestLogCap:
    def test_log_is_bounded(self):
        bus = DiscoveryBus(log_size=8)
        service = sensor_service()
        for i in range(20):
            bus.publish(
                Announcement(AnnouncementKind.ALIVE, service, "e", 4, i)
            )
        log = bus.log
        assert len(log) == 8
        # Oldest dropped first: the retained window is the most recent one.
        assert [a.instant for a in log] == list(range(12, 20))
        assert bus.published_count == 20
        assert bus.dropped_count == 12

    def test_default_cap_mirrors_failure_log_size(self):
        from repro.pems.discovery import ANNOUNCEMENT_LOG_SIZE
        from repro.pems.query_processor import FAILURE_LOG_SIZE

        assert ANNOUNCEMENT_LOG_SIZE == FAILURE_LOG_SIZE
        bus = DiscoveryBus()
        service = sensor_service()
        for i in range(ANNOUNCEMENT_LOG_SIZE + 10):
            bus.publish(
                Announcement(AnnouncementKind.ALIVE, service, "e", 4, i)
            )
        assert len(bus.log) == ANNOUNCEMENT_LOG_SIZE
        assert bus.dropped_count == 10

    def test_long_run_does_not_accumulate(self, rig):
        """Regression: a long-running PEMS with short leases used to
        retain every renewal ever published."""
        clock, bus, erm, local = rig
        local.register(sensor_service())
        advance(1000, clock, erm, local)  # ~500 renewals at cadence 2
        assert len(bus.log) <= 256
        assert bus.dropped_count > 0


class TestRenewalAnchoring:
    def test_mid_cadence_registration_with_short_lease_survives(self):
        """Regression: with lease=2 (cadence 1) anchored on the global
        grid this passed, but with lease=4 (cadence 2) a service
        registered on an odd instant waited until the next even instant —
        under lease=2 the equivalent off-grid registration could expire
        before its first renewal.  Anchoring is per registration instant."""
        clock = VirtualClock()
        bus = DiscoveryBus()
        erm = EnvironmentResourceManager(bus, clock, ServiceRegistry())
        local = LocalEnvironmentResourceManager("floor-1", bus, clock, lease=2)
        advance(1, clock, erm, local)  # now = 1: mid-cadence for any grid anchored at 0
        local.register(sensor_service())
        for _ in range(10):
            advance(1, clock, erm, local)
            assert "sensor01" in erm.registry  # never expires while renewed

    def test_renewals_follow_registration_anchor(self):
        clock = VirtualClock()
        bus = DiscoveryBus()
        erm = EnvironmentResourceManager(bus, clock, ServiceRegistry())
        local = LocalEnvironmentResourceManager("floor-1", bus, clock, lease=6)
        advance(3, clock, erm, local)  # register at instant 3; cadence is 3
        local.register(sensor_service())
        advance(7, clock, erm, local)
        renewals = [
            (a.instant, a.kind)
            for a in bus.log
            if a.kind is not AnnouncementKind.BYE
            and "sensor01" in [s.reference for s in a.services]
        ]
        assert [instant for instant, _ in renewals] == [3, 6, 9]  # anchored at 3
        assert [kind for _, kind in renewals] == [
            AnnouncementKind.ALIVE,  # the registration
            AnnouncementKind.RENEW,
            AnnouncementKind.RENEW,
        ]

    def test_recover_reannounces_next_tick(self):
        """The recover() docstring promises next-tick re-announcement;
        the global grid used to delay it to the next cadence boundary."""
        clock = VirtualClock()
        bus = DiscoveryBus()
        erm = EnvironmentResourceManager(bus, clock, ServiceRegistry())
        local = LocalEnvironmentResourceManager("floor-1", bus, clock, lease=6)
        local.register(sensor_service())
        local.crash()
        advance(8, clock, erm, local)  # lease expired, reaped
        assert "sensor01" not in erm.registry
        local.recover()
        advance(1, clock, erm, local)  # next tick, whatever the cadence grid says
        assert "sensor01" in erm.registry


class TestRenew:
    """One RENEW per Local ERM per tick carries every due lease; the core
    ERM admits each service it carries exactly as it admits an ALIVE."""

    def announcements_since(self, bus, count):
        return bus.log[count:]

    def test_one_renew_per_tick_carries_every_due_service(self, rig):
        clock, bus, erm, local = rig  # lease 4: cadence 2
        for reference in ("c", "a", "b"):
            local.register(sensor_service(reference))
        before = len(bus.log)
        advance(4, clock, erm, local)
        renewals = self.announcements_since(bus, before)
        assert [(a.kind, a.instant) for a in renewals] == [
            (AnnouncementKind.RENEW, 2),
            (AnnouncementKind.RENEW, 4),
        ]
        assert [s.reference for s in renewals[0].services] == ["a", "b", "c"]
        assert renewals[0].service is None and renewals[0].lease == 4
        assert [e.kind for e in erm.events] == ["appeared"] * 3

    def test_a_renew_for_a_parked_service_refreshes_the_parked_copy(self):
        clock = VirtualClock()
        bus = DiscoveryBus()
        registry = ServiceRegistry(
            policy=InvocationPolicy(failure_threshold=1)
        )
        erm = EnvironmentResourceManager(bus, clock, registry)
        local = LocalEnvironmentResourceManager("floor-1", bus, clock, lease=4)
        local.register(sensor_service())
        registry.health.record_failure("sensor01", 0)
        advance(1, clock, erm, local)  # the quarantine sweep parks it
        assert erm.parked == {"sensor01"} and "sensor01" not in registry
        fresh = sensor_service(location="lab")
        bus.publish(
            Announcement(
                AnnouncementKind.RENEW, None, "floor-1", lease=9, instant=1,
                renewed=(fresh,),
            )
        )
        assert erm._parked["sensor01"] == (fresh, 9)
        assert "sensor01" not in registry  # still parked until released

    def test_a_renew_after_expiry_readmits_with_appeared(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        local.crash()
        advance(8, clock, erm, local)
        assert "sensor01" not in erm.registry
        before = len(bus.log)
        local.recover()
        advance(1, clock, erm, local)
        (renew,) = self.announcements_since(bus, before)
        assert renew.kind is AnnouncementKind.RENEW
        assert "sensor01" in erm.registry
        assert [e.kind for e in erm.events] == ["appeared", "expired", "appeared"]

    def test_a_crashed_local_erm_sends_none(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        local.crash()
        before = bus.published_count
        advance(10, clock, erm, local)
        assert bus.published_count == before

    def test_recover_sends_one_renew_carrying_every_service(self, rig):
        clock, bus, erm, local = rig
        for reference in ("s3", "s1", "s2"):
            local.register(sensor_service(reference))
        advance(1, clock, erm, local)  # s1..s3 registered at 0: not due before 2
        local.crash()
        advance(2, clock, erm, local)
        before = len(bus.log)
        local.recover()
        advance(1, clock, erm, local)
        (renew,) = self.announcements_since(bus, before)
        assert renew.kind is AnnouncementKind.RENEW
        assert renew.services == local.services


class TestByeForgets:
    """A service that says BYE leaves no per-reference state behind; a
    lease expiry keeps it (the device may come back)."""

    def test_the_remaining_service_is_no_longer_normalized_by_a_departed_one(self, rig):
        clock, bus, erm, local = rig

        def slow(inputs, instant):
            time.sleep(0.005)
            return [(1.0,)]

        local.register(Service("slow", {GET_TEMPERATURE: slow}))
        local.register(sensor_service("fast"))
        erm.registry.invoke_many(GET_TEMPERATURE, ["slow", "fast"], (), 0)
        before = erm.registry.latency_snapshot()
        assert before.keys() == {"slow", "fast"}
        assert before["slow"] > before["fast"]
        local.deregister("slow")
        # Only the remaining service's own EWMA is left, unchanged.
        assert erm.registry.latency_snapshot() == {"fast": before["fast"]}

    def test_lease_expiry_keeps_the_state(self, rig):
        clock, bus, erm, local = rig
        local.register(sensor_service())
        erm.registry.health.record_failure("sensor01", 0)
        erm.registry.invoke(GET_TEMPERATURE, "sensor01", (), 0)
        local.crash()
        advance(8, clock, erm, local)
        assert "sensor01" not in erm.registry
        assert "sensor01" in erm.registry.health.known()
        assert erm.registry.latency_snapshot().keys() == {"sensor01"}

    def test_state_stays_bounded_over_register_bye_cycles(self):
        clock = VirtualClock()
        bus = DiscoveryBus()
        registry = ServiceRegistry(policy=InvocationPolicy(failure_threshold=1))
        erm = EnvironmentResourceManager(bus, clock, registry)
        local = LocalEnvironmentResourceManager("churn", bus, clock, lease=4)
        broken: set[str] = set()

        def handler(reference):
            def read(inputs, instant):
                if reference in broken:
                    raise RuntimeError("gone bad")
                return [(1.0,)]

            return read

        for cycle in range(1000):
            reference = f"dev{cycle:04d}"
            local.register(Service(reference, {GET_TEMPERATURE: handler(reference)}))
            registry.invoke(GET_TEMPERATURE, reference, (), clock.now)
            if cycle % 2:  # quarantined and parked before it leaves
                broken.add(reference)
                with pytest.raises(InvocationError):
                    registry.invoke(GET_TEMPERATURE, reference, (), clock.now)
                advance(1, clock, erm, local)
                assert erm.parked == {reference}
            local.deregister(reference)
        assert registry._latency == {}
        assert registry.health.known() == frozenset()
        assert registry.health.unsettled == set()
        assert erm.parked == frozenset()
