"""One federation zone: an ERM shard plus a query-processor shard.

A zone owns

* its own :class:`~repro.pems.discovery.DiscoveryBus` segment — the
  services of the zone announce here, and the gossip relay forwards the
  segment to the coordinator bus (see :mod:`repro.fed.gossip`);
* its own :class:`~repro.pems.erm.EnvironmentResourceManager` over a
  zone-local service registry — the ERM shard, holding exactly the
  zone's services with their lease bookkeeping;
* a zone :class:`~repro.model.environment.PervasiveEnvironment` holding
  the zone's relation *partitions* under their federated names, so a
  scattered subplan's scan resolves to the partition;
* a zone :class:`~repro.exec.shared.SharedPlanRegistry` — the
  query-processor shard: scattered subtrees lower here once per zone and
  are shared across all coordinator queries that lease them.

``advance`` ticks every registered shard executor at an instant with a
per-instant memoized context — on the coordinator thread in lockstep
mode, or inside a forked worker process, where ``apply_slices`` first
replays the coordinator's partition writes into the worker's journal
replicas.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.context import EvaluationContext
from repro.continuous.time import VirtualClock
from repro.exec.delta import Delta
from repro.exec.executors import Executor
from repro.exec.shared import SharedPlanRegistry
from repro.model.environment import PervasiveEnvironment
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import ServiceRegistry
from repro.obs.observe import Observability
from repro.pems.discovery import DiscoveryBus
from repro.pems.erm import EnvironmentResourceManager

__all__ = ["Zone"]

#: One journal slice per relation: ``[(instant, inserted, deleted), ...]``.
Slices = Mapping[str, Sequence[tuple[int, frozenset, frozenset]]]


class Zone:
    """A lockstep federation shard on the shared virtual clock."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        policy: InvocationPolicy | None = None,
        observe: "Observability | str | None" = None,
    ):
        self.name = name
        self.clock = clock
        self.obs = Observability.coerce(observe)
        self.bus = DiscoveryBus(observe=self.obs)
        self.services = ServiceRegistry(policy=policy)
        # The ERM shard: lease bookkeeping over this zone's bus segment
        # only.  Invocations stay with the coordinator ERM (the authority
        # for retry/quarantine policy); the shard's registry is the
        # zone-local service view surfaced by ``.shards`` and metrics.
        self.erm = EnvironmentResourceManager(
            self.bus, clock, self.services, observe=self.obs
        )
        self.environment = PervasiveEnvironment(self.services)
        #: The query-processor shard: scattered subtrees lower here.
        self.plans = SharedPlanRegistry(self.environment, observe=self.obs)
        self._states: dict[int, dict] = {}
        self._ctx: EvaluationContext | None = None
        metrics = self.obs.metrics
        self._services_gauge = metrics.gauge(
            "serena_zone_services",
            "Services registered in this zone's ERM shard",
            zone=name,
        )
        self._rows_gauge = metrics.gauge(
            "serena_zone_rows",
            "Tuples held by this zone's relation partitions",
            zone=name,
        )
        self._subplans_gauge = metrics.gauge(
            "serena_zone_subplans",
            "Scattered subtrees live in this zone's plan registry",
            zone=name,
        )

    # -- lockstep execution -------------------------------------------------------

    def context(self, instant: int) -> EvaluationContext:
        """The zone's evaluation context for ``instant`` (memoized, with
        the zone registry's per-instant journal cache installed)."""
        if self._ctx is None or self._ctx.instant != instant:
            ctx = EvaluationContext(
                self.environment, instant, self._states, continuous=True
            )
            ctx.journal_cache = self.plans.journal_cache(instant)
            self._ctx = ctx
        return self._ctx

    def tick(self, executor: Executor, instant: int) -> Delta:
        """Advance one shard executor to ``instant`` (memoized per
        instant by the executor itself, so gather pulls after an eager
        ``advance`` are O(1))."""
        return executor.tick(self.context(instant))

    def advance(self, instant: int) -> None:
        """Advance every registered shard executor to ``instant``.

        Deterministic order (by subtree fingerprint) for reproducible
        traces; results are order-independent because executors memoize
        per instant and scattered subtrees have no side effects."""
        ctx = self.context(instant)
        for entry in sorted(
            self.plans._entries.values(), key=lambda e: e.fingerprint
        ):
            entry.executor.tick(ctx)

    # -- process-worker support ---------------------------------------------------

    def apply_slices(self, slices: Slices) -> None:
        """Replay coordinator partition writes into this (forked) zone's
        journal replicas, in relation-name order.  Slices are exact
        journal chunks, so the replica journals match the coordinator's
        partitions instant for instant."""
        for name in sorted(slices):
            stored = self.environment.relation(name)
            for instant, inserted, deleted in slices[name]:
                if inserted:
                    stored.insert(inserted, instant)
                if deleted:
                    stored.delete(deleted, instant)

    def shard_deltas(self) -> dict[str, tuple[frozenset, frozenset]]:
        """Fingerprint → last change delta of every shard executor
        (what a worker process ships back after ``advance``)."""
        out: dict[str, tuple[frozenset, frozenset]] = {}
        for entry in self.plans._entries.values():
            change = entry.executor.change
            out[entry.fingerprint] = (change.inserted, change.deleted)
        return out

    # -- observation --------------------------------------------------------------

    def _rows(self) -> int:
        """Tuples held by the zone's sized relation partitions."""
        rows = 0
        for name in self.environment.relation_names:
            try:
                rows += len(self.environment.relation(name))
            except TypeError:
                pass
        return rows

    def sync_gauges(self) -> None:
        self._services_gauge.set(len(self.services))
        self._rows_gauge.set(self._rows())
        self._subplans_gauge.set(len(self.plans))

    def summary(self) -> dict:
        """One ``.shards`` row: the zone's service, row, subplan and
        local-ERM counts."""
        return {
            "zone": self.name,
            "services": len(self.services),
            "relations": len(self.environment.relation_names),
            "rows": self._rows(),
            "subplans": len(self.plans),
        }

    def __repr__(self) -> str:
        return (
            f"Zone({self.name!r}, {len(self.services)} services, "
            f"{len(self.plans)} subplans)"
        )
