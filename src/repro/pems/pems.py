"""The PEMS facade: one object wiring the Figure 1 architecture.

A :class:`PEMS` owns the environment clock, the discovery bus, the three
core modules (Environment Resource Manager, Extended Table Manager, Query
Processor) and the distributed Local Environment Resource Managers.

One instant τ is :meth:`PEMS.tick`: the clock advances to τ, then five
phases run in this order, and nothing else runs in between.

1. ``erm.sweep`` — :meth:`EnvironmentResourceManager.sweep`.  Reads the
   registry, the lease expiries, the parked services and the health
   stamps of instants before τ.  Writes registry membership: it refreshes
   substitution bindings and the failover table, parks quarantined
   services, re-admits released ones and reaps expired leases, emitting
   discovery events (which mark queries for the scheduler).  Its
   membership changes are visible to ``ingest`` at the same instant.
2. ``ingest`` — every stream source, in the order they were added.  Reads
   the providers left by the sweep and calls their devices at τ through
   :meth:`ServiceRegistry.invoke_many`.  Writes one batch of readings
   into each stream XD-Relation at τ, and the devices' health and latency
   records.  It calls devices outside ``evaluate``'s invocation memo, so
   a device that a feeder and a β both call at τ counts two attempts
   toward its health.
3. ``discovery.sync`` — :meth:`QueryProcessor.sync_discovery`.  Reads
   registry membership as the sweep left it.  Writes each discovery
   XD-Relation at τ: one insert and one delete batch per relation, so
   queries at τ see the services of τ.
4. ``evaluate`` — :meth:`QueryProcessor.evaluate`.  Reads every relation
   at τ, as ``ingest`` and ``discovery.sync`` left them, and the
   discovery events since its last run.  Writes each continuous query's
   result and actions at τ (or carries it forward when the scheduler
   finds it unaffected), the failure log, and the health of the devices
   its β operators call.  Identical calls within it reach a device once.
5. ``lease.renew`` — :meth:`LocalEnvironmentResourceManager.renew` on
   every Local ERM, in creation order.  Reads each Local ERM's services
   and renewal anchors.  Publishes one RENEW per Local ERM carrying its
   due services; the core ERM admits them at once, but every phase that
   reads membership has already run, so renewals take effect from the
   next instant, like a real network advertisement.

The stream sources and Local ERMs of a tick are those present when it
starts: one added during a tick first acts at the next.  A subscription
server fans the results out after :meth:`PEMS.tick` returns.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.continuous.time import VirtualClock
from repro.errors import SerenaError
from repro.model.environment import PervasiveEnvironment
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import ServiceRegistry
from repro.obs.observe import Observability
from repro.pems.discovery import DiscoveryBus
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.local_erm import LocalEnvironmentResourceManager
from repro.pems.query_processor import QueryProcessor
from repro.pems.table_manager import ExtendedTableManager

__all__ = ["PEMS"]

#: A stream source is called once per tick, in the ``ingest`` phase, to
#: push data from remote sources into XD-Relations.
StreamSource = Callable[[int], None]


class PEMS:
    """A Pervasive Environment Management System instance.

    ``engine`` selects the execution engine for every continuous query
    registered through the query processor — ``"shared"`` (default:
    delta-driven execution with cross-query subplan sharing and the
    quiescence-aware tick scheduler) or ``"naive"`` (the oracle; see
    :mod:`repro.continuous.continuous_query`).

    ``policy`` sets the fault-tolerance :class:`InvocationPolicy` on the
    service registry (quarantine threshold and re-admission delay); the
    default is fully permissive — every invocation reaches the device,
    matching a policy-free system (see :mod:`repro.model.invocation_policy`).
    Substitution rebinding needs no setting: it follows the rules declared
    with :meth:`declare_substitution`.

    Metrics always record (DESIGN.md §9): every component shares the one
    :class:`~repro.obs.observe.Observability` at :attr:`obs` — counters,
    gauges and per-tick histograms in one registry, nothing to select.
    Observation never changes evaluation results.
    """

    def __init__(
        self,
        engine: str = "shared",
        policy: InvocationPolicy | None = None,
    ):
        self.obs = Observability()
        self.clock = VirtualClock()
        self.bus = DiscoveryBus(observe=self.obs)
        self.environment = PervasiveEnvironment(
            ServiceRegistry(policy=policy, observe=self.obs)
        )
        self.erm = EnvironmentResourceManager(
            self.bus, self.clock, self.environment.registry, observe=self.obs
        )
        self.tables = ExtendedTableManager(self.environment, self.clock)
        self._sources: list[StreamSource] = []
        self.queries = QueryProcessor(
            self.environment,
            self.clock,
            self.erm,
            self.tables,
            engine=engine,
            observe=self.obs,
        )
        self._local_erms: dict[str, LocalEnvironmentResourceManager] = {}

    # -- topology -------------------------------------------------------------------

    def create_local_erm(
        self, name: str, lease: int | None = None
    ) -> LocalEnvironmentResourceManager:
        """Create a Local ERM attached to this PEMS's bus and clock, or
        return the one already named ``name``; an explicit ``lease`` must
        then be that ERM's lease."""
        if name in self._local_erms:
            local = self._local_erms[name]
            if lease is not None and lease != local.lease:
                raise SerenaError(
                    f"Local ERM {name!r} exists with lease {local.lease}, "
                    f"not {lease}"
                )
            return local
        kwargs = {} if lease is None else {"lease": lease}
        local = LocalEnvironmentResourceManager(name, self.bus, self.clock, **kwargs)
        self._local_erms[name] = local
        return local

    @property
    def local_erms(self) -> dict[str, LocalEnvironmentResourceManager]:
        return dict(self._local_erms)

    def declare_substitution(self, rule) -> None:
        """Declare a semantic substitution rule with the core ERM (see
        :mod:`repro.model.substitution`): when a provider of the rule's
        prototype is quarantined or its lease expires, the ERM sweep
        rebinds its invocations to the best-ranked live substitute."""
        self.erm.declare_substitution(rule)

    # -- stream sources --------------------------------------------------------------

    def add_stream_source(self, source: StreamSource) -> None:
        """Register a per-tick data producer (simulated device feed); it
        runs in the ``ingest`` phase."""
        self._sources.append(source)

    # -- operation ---------------------------------------------------------------------

    def execute_ddl(self, text: str) -> list[object]:
        """Run Serena DDL against the table manager / environment."""
        return self.tables.execute_ddl(text)

    def tick(self) -> int:
        """Advance the environment by one instant: the phases of the
        module docstring, in order (observed)."""
        started = time.perf_counter()
        sources = tuple(self._sources)
        local_erms = tuple(self._local_erms.values())
        instant = self.clock.tick()
        self.erm.sweep(instant)
        for source in sources:  # ingest
            source(instant)
        self.queries.sync_discovery()
        self.queries.evaluate(instant)
        for local in local_erms:  # lease.renew
            local.renew(instant)
        self.obs.record_tick(time.perf_counter() - started)
        return instant

    def run(self, instants: int) -> int:
        """Advance the environment by ``instants`` instants."""
        if instants < 0:
            raise SerenaError("cannot run the clock backwards")
        now = self.clock.now
        for _ in range(instants):
            now = self.tick()
        return now

    def describe(self) -> str:
        """Catalog dump: prototypes, services, relations, queries."""
        lines = [self.environment.describe(), "-- Continuous queries --"]
        for name in sorted(self.queries.continuous_queries):
            cq = self.queries.continuous_queries[name]
            lines.append(f"{name}: {cq.query.render()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PEMS(instant={self.clock.now}, "
            f"services={len(self.environment.registry)}, "
            f"relations={len(self.environment.relation_names)})"
        )
