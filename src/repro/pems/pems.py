"""The PEMS facade: one object wiring the Figure 1 architecture.

A :class:`PEMS` owns the environment clock, the discovery bus, the three
core modules (Environment Resource Manager, Extended Table Manager, Query
Processor) and the distributed Local Environment Resource Managers.  Tick
ordering follows the prototype's dataflow:

1. the core ERM processes lease expirations and drains async invocations,
2. stream sources (simulated devices) push new tuples into XD-Relations,
3. the query processor synchronizes discovery tables and evaluates every
   registered continuous query.

Local ERMs renew their announcements last; a renewal is visible to queries
from the next instant, like a real network advertisement would be.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.continuous.time import VirtualClock
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

#: A stream source is called once per tick, before queries are evaluated,
#: to push data from remote sources into XD-Relations.
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
        # Construction order fixes tick-listener order (see module doc).
        self.erm = EnvironmentResourceManager(
            self.bus, self.clock, self.environment.registry, observe=self.obs
        )
        self.tables = ExtendedTableManager(self.environment, self.clock)
        self._sources: list[StreamSource] = []
        self.clock.on_tick(self._run_sources)
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
        """Create a Local ERM attached to this PEMS's bus and clock."""
        if name in self._local_erms:
            return self._local_erms[name]
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
        """Register a per-tick data producer (simulated device feed)."""
        self._sources.append(source)

    def _run_sources(self, instant: int) -> None:
        for source in list(self._sources):
            source(instant)

    # -- operation ---------------------------------------------------------------------

    def execute_ddl(self, text: str) -> list[object]:
        """Run Serena DDL against the table manager / environment."""
        return self.tables.execute_ddl(text)

    def tick(self) -> int:
        """Advance the environment by one instant (observed)."""
        started = time.perf_counter()
        instant = self.clock.tick()
        self.obs.record_tick(time.perf_counter() - started)
        return instant

    def run(self, instants: int) -> int:
        """Advance the environment by ``instants`` instants."""
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
