"""The core Environment Resource Manager (Figure 1, Section 5.1).

The core ERM "handles network issues for service discovery and remote
invocation": it listens to the discovery bus, maintains the global
:class:`ServiceRegistry` with lease bookkeeping and reaps services whose
leases expire.  The query processor invokes services through that
registry; an asynchronous β (``delay > 0``) schedules its own responses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.continuous.time import VirtualClock
from repro.model.invocation_policy import HealthState
from repro.model.prototypes import Prototype
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import ResolvedBinding, SubstitutionRule
from repro.obs.observe import Observability
from repro.pems.discovery import Announcement, AnnouncementKind, DiscoveryBus

__all__ = ["EnvironmentResourceManager", "DiscoveryEvent", "EVENT_LOG_SIZE"]

#: Discovery events :attr:`EnvironmentResourceManager.events` retains, the
#: oldest dropped first.  Twice the registration burst of the 2017-device
#: reference city: a smaller log shrinks the long-lived heap enough to add
#: a full garbage collection to that city's ticks (EXPERIMENTS.md X19).
EVENT_LOG_SIZE = 4096


@dataclass(frozen=True)
class DiscoveryEvent:
    """A change in the set of available services.

    ``kind`` is one of ``"appeared"`` (registered, including re-admission
    after a quarantine), ``"left"`` (explicit BYE), ``"expired"`` (lease
    ran out), ``"quarantined"`` (removed by the fault-tolerance policy
    after crossing its failure threshold) or ``"rebound"`` (kept
    registered, but its invocations now route through a substitution
    binding — continuous queries over its prototypes must re-evaluate).
    """

    kind: str  # "appeared" | "left" | "expired" | "quarantined" | "rebound"
    service: Service
    instant: int


class EnvironmentResourceManager:
    """Global service discovery and invocation hub."""

    def __init__(
        self,
        bus: DiscoveryBus,
        clock: VirtualClock,
        registry: ServiceRegistry,
        observe: Observability | None = None,
    ):
        self.bus = bus
        self.clock = clock
        self.registry = registry
        #: Observability facade (PEMS passes its environment-wide one).
        self.obs = observe or Observability()
        metrics = self.obs.metrics
        event_help = "Service discovery events emitted by the core ERM, by kind"
        self._event_totals = {
            kind: metrics.counter(
                "serena_discovery_events_total", event_help, kind=kind
            )
            for kind in ("appeared", "left", "expired", "quarantined", "rebound")
        }
        self._rebinds_total = {
            reason: metrics.counter(
                "serena_substitution_rebinds_total",
                "Substitution bindings installed or released, by trigger",
                reason=reason,
            )
            for reason in (
                "quarantine",
                "lease-expiry",
                "substitute-failed",
                "left",
            )
        }
        self._bindings_gauge = metrics.gauge(
            "serena_substitutions_active",
            "Active substitution bindings (prototype x reference pairs)",
        )
        self._available_gauge = metrics.gauge(
            "serena_services_available",
            "Services currently registered (invocable) in the environment",
        )
        self._quarantined_gauge = metrics.gauge(
            "serena_services_quarantined",
            "Services currently parked out of the registry by quarantine",
        )
        #: Invalidation signature of the last failover-table build: the
        #: table only depends on registry membership, score-relevant
        #: health stamps, the rule set and the active bindings, so across
        #: fault-free ticks it is simply reused (the ≤5% overhead budget).
        self._failover_sig: tuple | None = None
        self._expiry: dict[str, int] = {}
        # Quarantined services, removed from the registry but remembered so
        # they can be re-admitted once their quarantine backoff elapses:
        # reference -> (service, lease hint for re-registration).
        self._parked: dict[str, tuple[Service, int]] = {}
        self._listeners: list[Callable[[DiscoveryEvent], None]] = []
        self._events: deque[DiscoveryEvent] = deque(maxlen=EVENT_LOG_SIZE)
        bus.subscribe(self._on_announcement)

    # -- observation ------------------------------------------------------------

    def on_discovery(self, listener: Callable[[DiscoveryEvent], None]) -> None:
        """Register a listener for service appearance/departure events
        (service discovery queries hang off this)."""
        self._listeners.append(listener)

    @property
    def events(self) -> list[DiscoveryEvent]:
        """The most recent discovery events, oldest first; at most
        :data:`EVENT_LOG_SIZE`, oldest dropped first."""
        return list(self._events)

    def available(self, prototype: Prototype) -> list[Service]:
        """Currently available services implementing ``prototype``."""
        return self.registry.providers(prototype)

    @property
    def parked(self) -> frozenset[str]:
        """References currently quarantined out of the registry."""
        return frozenset(self._parked)

    # -- discovery protocol ----------------------------------------------------------

    def _emit(self, kind: str, service: Service) -> None:
        event = DiscoveryEvent(kind, service, self.clock.now)
        self._events.append(event)
        counter = self._event_totals.get(kind)
        if counter is not None:
            counter.inc()
        self._available_gauge.set(len(self.registry))
        self._quarantined_gauge.set(len(self._parked))
        for listener in list(self._listeners):
            listener(event)

    def _on_announcement(self, announcement: Announcement) -> None:
        """ALIVE is a RENEW of one: both admit each service they carry.
        BYE unregisters or unparks the service and forgets its
        per-reference state (:meth:`ServiceRegistry.forget`)."""
        if announcement.kind is not AnnouncementKind.BYE:
            lease = max(1, announcement.lease)
            for service in announcement.services:
                self._admit(service, announcement.instant, lease)
            return
        service = announcement.service
        if service.reference in self._parked:
            # Deregistered while quarantined: gone for good.
            del self._parked[service.reference]
        elif service.reference in self.registry:
            subs = self.registry.substitutions
            if subs.enabled:
                # An explicit goodbye releases any binding held *for*
                # this reference; bindings routing *through* it are
                # re-ranked by the next tick's sweep.
                for prototype_name, reference in subs.bound_keys_for(
                    service.reference
                ):
                    self._note_rebind(
                        subs.drop(
                            prototype_name,
                            reference,
                            announcement.instant,
                            "left",
                        )
                    )
            self.registry.unregister(service.reference)
            self._expiry.pop(service.reference, None)
            self._emit("left", service)
        self.registry.forget(service.reference)

    def _admit(self, service: Service, instant: int, lease: int) -> None:
        """Apply one ALIVE sent at ``instant``: (re)register ``service``
        for ``lease`` instants, emitting ``appeared`` if it is new."""
        reference = service.reference
        if reference in self._parked:
            # A quarantined service keeps announcing (its Local ERM does
            # not know about the quarantine): refresh the parked copy and
            # lease hint, but keep it out of the registry until released.
            self._parked[reference] = (service, lease)
            return
        new = reference not in self.registry
        self.registry.register(service)
        self._expiry[reference] = instant + lease
        if new:
            self._emit("appeared", service)

    def sweep(self, instant: int) -> None:
        """The ``erm.sweep`` phase of :meth:`repro.pems.pems.PEMS.tick`:
        substitution maintenance, quarantine parking, re-admission and
        lease reaping at ``instant``."""
        health = self.registry.health
        subs = self.registry.substitutions
        if subs.enabled:
            # Substitution maintenance runs first so the binding and
            # failover tables every invocation at ``instant`` consults are
            # derived from strictly-earlier health stamps and then frozen
            # for the whole tick (§3.2 determinism).
            self._substitution_sweep(instant)
        # Quarantine sweep: a service whose failures crossed the policy
        # threshold is treated like a lease expiry — removed from the
        # registry (and hence from dynamic XD-Relation extents at the next
        # discovery sync) and parked for later re-admission.  With a
        # substitution binding available the service is instead healed in
        # place: it stays registered (discovery rows intact) and its
        # invocations route to the substitute.
        bound = subs.bound_references() if subs.enabled else frozenset()
        for reference in sorted(health.quarantined()):
            if reference not in self.registry:
                continue
            if reference in bound:
                continue  # already substituted in place
            if subs.enabled and self._try_rebind(reference, instant, "quarantine"):
                bound = subs.bound_references()
                continue
            service = self.registry.get(reference)
            lease_hint = max(1, self._expiry.get(reference, instant + 1) - instant)
            self.registry.unregister(reference)
            self._expiry.pop(reference, None)
            self._parked[reference] = (service, lease_hint)
            self._emit("quarantined", service)
        # Re-admission: once the quarantine backoff elapses, the service
        # re-enters on probation (SUSPECT with a clean failure count).
        for reference in sorted(self._parked):
            if not health.release_due(reference, instant):
                continue
            service, lease_hint = self._parked.pop(reference)
            health.release(reference)
            self.registry.register(service)
            self._expiry[reference] = instant + lease_hint
            self._emit("appeared", service)
        # Reap expired leases (crashed devices, partitioned Local ERMs).
        # A bound service's lease self-renews: the device behind it is
        # gone, but the binding keeps the reference alive (and its
        # discovery rows stable) until the substitute itself fails.
        for reference in sorted(self._expiry):
            if self._expiry[reference] < instant:
                if subs.enabled and (
                    reference in bound
                    or self._try_rebind(reference, instant, "lease-expiry")
                ):
                    bound = subs.bound_references()
                    self._expiry[reference] = instant + 1
                    continue
                service = self.registry.get(reference)
                self.registry.unregister(reference)
                del self._expiry[reference]
                self._emit("expired", service)

    # -- substitution (semantic rebinding) -------------------------------------------

    def declare_substitution(self, rule: SubstitutionRule) -> None:
        """Add a rule to the substitution relation (queryable via
        :meth:`substitution_report`; consulted by the tick sweep whenever
        a provider of the rule's prototype is quarantined or its lease
        expires)."""
        self.registry.substitutions.declare(rule)

    def substitution_report(self) -> dict:
        """Declared rules, active bindings, the current failover table and
        the recent rebind history (the ``.substitutions`` CLI surface)."""
        return self.registry.substitutions.report()

    def _note_rebind(self, record) -> None:
        if record is None:
            return
        counter = self._rebinds_total.get(record.reason)
        if counter is not None:
            counter.inc()
        self._bindings_gauge.set(len(self.registry.substitutions.bindings))

    def _candidate_plans(
        self, prototype: Prototype, reference: str
    ) -> list[ResolvedBinding]:
        """Resolved, ranked, cycle-free plans for ``(prototype, reference)``."""
        subs = self.registry.substitutions
        plans = subs.rank(
            self.registry, subs.resolve(self.registry, prototype, reference)
        )
        return [
            plan for plan in plans if not subs.routes_through(plan, reference)
        ]

    def _prototypes_of(self, reference: str) -> list[Prototype]:
        service = self.registry.get(reference)
        return sorted(service.prototypes, key=lambda p: p.name)

    def _try_rebind(self, reference: str, instant: int, reason: str) -> bool:
        """Install sticky bindings for every substitutable prototype of
        ``reference``; True iff at least one binding is now active (the
        service then stays registered instead of parking/expiring)."""
        subs = self.registry.substitutions
        covered = subs.prototype_names
        installed = False
        for prototype in self._prototypes_of(reference):
            if prototype.name not in covered:
                continue
            if subs.binding(prototype.name, reference) is not None:
                installed = True
                continue
            plans = self._candidate_plans(prototype, reference)
            if plans:
                self._note_rebind(subs.install(plans[0], instant, reason))
                installed = True
        if installed:
            self._emit("rebound", self.registry.get(reference))
        return installed

    def _binding_healthy(self, plan: ResolvedBinding) -> bool:
        return (
            plan.target in self.registry
            and self.registry.health.state(plan.target)
            is not HealthState.QUARANTINED
        )

    def _substitution_sweep(self, instant: int) -> None:
        subs = self.registry.substitutions
        # 1. Maintain active bindings: a binding whose substitute has left
        # or been quarantined is released; if another candidate exists it
        # takes over immediately (same sweep, same event), otherwise the
        # original falls through the normal quarantine/lease machinery
        # below — which self-heals it onto probation if it recovered.
        for key in sorted(subs.bindings):
            plan = subs.bindings[key]
            if self._binding_healthy(plan):
                continue
            prototype_name, reference = key
            self._note_rebind(
                subs.drop(prototype_name, reference, instant, "substitute-failed")
            )
            prototype = plan.prototype
            if (
                reference not in self.registry
                or not self.registry.get(reference).implements(prototype)
            ):
                continue
            plans = self._candidate_plans(prototype, reference)
            if plans:
                self._note_rebind(
                    subs.install(plans[0], instant, "substitute-failed")
                )
                self._emit("rebound", self.registry.get(reference))
        # 2. Refresh the failover table: pre-scored candidate plans for
        # every substitutable (prototype, reference) pair, frozen for this
        # tick.  The registry's failure path walks these in order, which
        # is what answers the very instant a bound device crashes.
        # Everything a candidate score reads is covered by three cheap
        # version counters (plus the rule count).
        signature = (
            self.registry.topology_version,
            self.registry.health.version,
            subs.epoch,
            len(subs.rules),
        )
        if signature == self._failover_sig:
            return
        self._failover_sig = signature
        # Only a provider of a prototype some rule covers can enter the
        # table, so the walk visits those alone, in (reference, prototype)
        # order.
        table: dict[tuple[str, str], tuple[ResolvedBinding, ...]] = {}
        covered = subs.prototype_names
        providers = sorted(
            (
                (service.reference, prototype.name, prototype)
                for prototype in self.registry.implemented
                if prototype.name in covered
                for service in self.registry.providers(prototype)
            ),
            key=lambda provider: provider[:2],
        )
        for reference, name, prototype in providers:
            key = (name, reference)
            if key in subs.bindings:
                continue  # already durably rerouted
            plans = self._candidate_plans(prototype, reference)
            if plans:
                table[key] = tuple(plans)
        subs.failover = table

    def __repr__(self) -> str:
        return f"CoreERM({len(self.registry)} services @ {self.clock.now})"
