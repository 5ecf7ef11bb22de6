"""Local Environment Resource Managers (Figure 1).

A Local ERM runs "on" a device or a gateway: services register to it, and
it announces them on the discovery bus with a lease, renewing periodically
(one RENEW per tick for all due leases) as long as the service stays
registered.  Killing a Local ERM (or a single
service) without deregistration simulates a crash: announcements stop and
the core ERM reaps the services when their leases expire.
"""

from __future__ import annotations

from repro.continuous.time import VirtualClock
from repro.errors import UnknownServiceError
from repro.model.services import Service
from repro.pems.discovery import Announcement, AnnouncementKind, DiscoveryBus

__all__ = ["LocalEnvironmentResourceManager"]

#: Default announcement lease, in clock instants.
DEFAULT_LEASE = 6


class LocalEnvironmentResourceManager:
    """A distributed registration point for services.

    Parameters
    ----------
    name:
        Identifier of this Local ERM (e.g. ``"building-A"``).
    bus:
        The discovery bus shared with the core ERM.
    clock:
        The environment clock, read for the instant of each announcement;
        :meth:`renew` runs once per tick.
    lease:
        Lease duration (instants) for this ERM's announcements.
    """

    def __init__(
        self,
        name: str,
        bus: DiscoveryBus,
        clock: VirtualClock,
        lease: int = DEFAULT_LEASE,
    ):
        self.name = name
        self.bus = bus
        self.clock = clock
        self.lease = lease
        self._services: dict[str, Service] = {}
        #: reference -> instant of the last ALIVE or RENEW; renewal
        #: cadence is anchored here, per registration, not on a global
        #: ``instant % cadence`` grid (a service registered just after a
        #: grid boundary with a short lease could expire unrenewed).
        self._last_announced: dict[str, int] = {}
        self._alive = True

    # -- service registration (what devices call) --------------------------------

    def register(self, service: Service) -> None:
        """Register and immediately announce a service."""
        self._services[service.reference] = service
        self._announce(service)

    def deregister(self, reference: str) -> None:
        """Deregister a service and send a graceful bye."""
        try:
            service = self._services.pop(reference)
        except KeyError:
            raise UnknownServiceError(reference) from None
        self._last_announced.pop(reference, None)
        self.bus.publish(
            Announcement(
                AnnouncementKind.BYE, service, self.name, instant=self.clock.now
            )
        )

    @property
    def services(self) -> tuple[Service, ...]:
        return tuple(
            self._services[ref] for ref in sorted(self._services)
        )

    # -- failure injection ---------------------------------------------------------

    def crash(self) -> None:
        """Simulate a crash: stop renewing without any bye announcements.

        Registered services remain "up" from the core ERM's point of view
        until their leases expire.
        """
        self._alive = False

    def recover(self) -> None:
        """Come back after a crash; services are re-announced next tick."""
        self._alive = True
        # Forget renewal anchors so every service re-announces at the next
        # tick instead of waiting out the remainder of its cadence.
        self._last_announced.clear()

    # -- internals --------------------------------------------------------------------

    def _announce(self, service: Service) -> None:
        self._last_announced[service.reference] = self.clock.now
        self.bus.publish(
            Announcement(
                AnnouncementKind.ALIVE,
                service,
                self.name,
                lease=self.lease,
                instant=self.clock.now,
            )
        )

    def renew(self, instant: int) -> None:
        """The ``lease.renew`` phase of :meth:`repro.pems.pems.PEMS.tick`.

        Renew leases at half-lease cadence (like UPnP re-advertisement),
        anchored at each service's own last announcement: one RENEW
        announcement carries every service due at ``instant``, in
        reference order."""
        if not self._alive:
            return
        cadence = max(1, self.lease // 2)
        last_announced = self._last_announced
        due = []
        for reference in sorted(self._services):
            last = last_announced.get(reference)
            if last is None or instant - last >= cadence:
                last_announced[reference] = instant
                due.append(self._services[reference])
        if due:
            self.bus.publish(
                Announcement(
                    AnnouncementKind.RENEW,
                    None,
                    self.name,
                    lease=self.lease,
                    instant=instant,
                    renewed=tuple(due),
                )
            )

    def __repr__(self) -> str:
        status = "up" if self._alive else "crashed"
        return (
            f"LocalERM({self.name!r}, {len(self._services)} services, {status})"
        )
