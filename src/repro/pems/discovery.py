"""Service discovery bus (simulated UPnP, Section 5.1 / Figure 1).

In the paper's prototype, Local Environment Resource Managers announce
their services over the network (UPnP) and the core Environment Resource
Manager discovers them.  This module simulates that protocol in-process
while preserving the dynamics that matter to the model:

* services announce themselves with a *lease* (a validity duration in
  clock instants) and renew it periodically — like UPnP's ``CACHE-CONTROL``;
  a Local ERM renews every due lease of an instant in one announcement;
* a service that leaves politely sends a *bye* announcement;
* a service that crashes simply stops renewing; its lease expires and the
  core ERM reaps it — this is how "sensors that are deactivated (or
  failing) [are] automatically removed" (Section 1.2).

The bus itself is a plain publish/subscribe channel; lease bookkeeping is
the subscriber's job (see :class:`repro.pems.erm.EnvironmentResourceManager`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.model.services import Service
from repro.obs.observe import Observability

__all__ = [
    "AnnouncementKind",
    "Announcement",
    "DiscoveryBus",
    "ANNOUNCEMENT_LOG_SIZE",
]

#: Retained announcements (diagnostics); mirrors the query processor's
#: FAILURE_LOG_SIZE.  A long-running PEMS with short leases publishes a
#: renewal per Local ERM every few instants — an unbounded log is a leak.
ANNOUNCEMENT_LOG_SIZE = 256


class AnnouncementKind(enum.Enum):
    """UPnP-style announcement types."""

    ALIVE = "alive"  # ssdp:alive — service available, lease (re)starts
    BYE = "bye"      # ssdp:byebye — service leaving gracefully
    RENEW = "renew"  # one Local ERM's due leases of an instant, restarted


@dataclass(frozen=True)
class Announcement:
    """One discovery message on the bus.

    ALIVE and BYE are about one ``service``; a RENEW carries its
    Local ERM's due services in ``renewed`` (``service`` is None), and
    means an ALIVE for each of them.
    """

    kind: AnnouncementKind
    service: Service | None
    origin: str          # the announcing Local ERM's identifier
    lease: int = 0       # validity in instants (ALIVE and RENEW)
    instant: int = 0     # when the announcement was sent
    renewed: tuple[Service, ...] = ()

    @property
    def services(self) -> tuple[Service, ...]:
        """The services the announcement is about, in order."""
        if self.kind is AnnouncementKind.RENEW:
            return self.renewed
        return (self.service,)


Listener = Callable[[Announcement], None]


class DiscoveryBus:
    """In-process announcement channel between Local ERMs and the core ERM."""

    def __init__(
        self,
        log_size: int = ANNOUNCEMENT_LOG_SIZE,
        observe: Observability | None = None,
    ):
        self._listeners: list[Listener] = []
        self._log: deque[Announcement] = deque(maxlen=log_size)
        #: Observability facade; PEMS passes its own, a standalone bus
        #: makes one.
        self.obs = observe or Observability()
        metrics = self.obs.metrics
        kind_help = "Discovery announcements published on the bus, by kind"
        self._kind_totals = {
            kind: metrics.counter(
                "serena_discovery_announcements_total", kind_help, kind=kind.value
            )
            for kind in AnnouncementKind
        }
        self._dropped_total = metrics.counter(
            "serena_discovery_dropped_total",
            "Announcements evicted from the bounded diagnostic log",
        )

    def subscribe(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Listener) -> None:
        self._listeners = [l for l in self._listeners if l is not listener]

    def publish(self, announcement: Announcement) -> None:
        """Deliver to all subscribers, synchronously and in order."""
        self._kind_totals[announcement.kind].inc()
        if len(self._log) == self._log.maxlen:
            self._dropped_total.inc()
        self._log.append(announcement)
        for listener in list(self._listeners):
            listener(announcement)

    @property
    def log(self) -> list[Announcement]:
        """The most recent announcements (diagnostics and tests); at most
        the configured ``log_size``, oldest dropped first."""
        return list(self._log)

    @property
    def published_count(self) -> int:
        """Total announcements ever published (including dropped ones).
        Backed by the ``serena_discovery_announcements_total`` family."""
        return int(sum(c.value for c in self._kind_totals.values()))

    @property
    def dropped_count(self) -> int:
        """Announcements evicted from the capped log.  Backed by the
        ``serena_discovery_dropped_total`` counter."""
        return int(self._dropped_total.value)
