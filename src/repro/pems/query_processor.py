"""The Query Processor (Figure 1, Section 5.1).

The query processor registers queries and executes them in a real-time
fashion: continuous queries are re-evaluated at every clock tick, and
*service discovery queries* continuously update designated XD-Relations so
that they represent the set of services implementing a given prototype
that are currently available through the core ERM — like the ``cameras``
and ``sensors`` tables of the temperature surveillance scenario, which new
sensors join "without the need to stop the continuous query execution".
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from repro.algebra.query import Query, QueryResult
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.time import VirtualClock
from repro.errors import SerenaError, UnknownAttributeError
from repro.exec.lowering import check_engine
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedPlanRegistry
from repro.model.environment import PervasiveEnvironment
from repro.model.services import Service
from repro.obs.observe import Observability
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.table_manager import ExtendedTableManager

__all__ = ["QueryProcessor", "DiscoveryQuery"]


@dataclass(frozen=True)
class QueryFailure:
    """One continuous-query evaluation failure, captured by the tick loop.

    The live exception object is *not* retained: its traceback frames
    would pin executor/engine state alive for up to
    :data:`FAILURE_LOG_SIZE` entries.  Only the exception type, its
    message and its ``repr`` are stored.
    """

    instant: int
    query_name: str
    error_type: type[BaseException]
    error_message: str
    error_repr: str

    @classmethod
    def from_exception(
        cls, instant: int, query_name: str, exc: BaseException
    ) -> "QueryFailure":
        return cls(instant, query_name, type(exc), str(exc), repr(exc))


@dataclass
class DiscoveryQuery:
    """Keeps one XD-Relation in sync with the available services."""

    prototype_name: str
    relation_name: str
    service_attribute: str
    #: What the last sync saw — ``(registry topology_version, writes to
    #: the relation's tracked rows)``; while both stand still there is
    #: nothing to diff.
    synced: tuple[int, int] | None = field(default=None, repr=False, compare=False)

    def build_row(self, service: Service, schema) -> dict[str, object]:
        """The relation row for a discovered service: ``{service_attribute:
        reference, **properties}`` restricted to the real attributes."""
        row: dict[str, object] = {self.service_attribute: service.reference}
        for name in schema.real_names:
            if name != self.service_attribute and name in service.properties:
                row[name] = service.properties[name]
        return row


#: How many evaluation failures the query processor retains (see
#: :attr:`QueryProcessor.failures`).
FAILURE_LOG_SIZE = 256


class QueryProcessor:
    """Registers and drives one-shot, continuous and discovery queries.

    Parameters
    ----------
    environment, clock, erm, tables:
        The PEMS components the processor is wired to (Figure 1).
    engine:
        Execution engine for every registered continuous query
        (:data:`~repro.exec.lowering.ENGINES`): ``"shared"`` (default —
        the delta-driven physical engine of :mod:`repro.exec`, every
        query's plan leased from this processor's registry and driven by
        its quiescence-aware tick scheduler) or ``"naive"`` (full
        re-evaluation each tick, the differential-testing oracle).  An
        oracle next to shared plans is a standalone
        :class:`ContinuousQuery` with ``engine="naive"``.
    """

    def __init__(
        self,
        environment: PervasiveEnvironment,
        clock: VirtualClock,
        erm: EnvironmentResourceManager,
        tables: ExtendedTableManager,
        engine: str = "shared",
        observe: Observability | None = None,
    ):
        self.environment = environment
        self.clock = clock
        self.erm = erm
        self.tables = tables
        check_engine(engine)
        self.engine = engine
        #: Observability facade shared across the processor, its scheduler,
        #: shared-plan registry and every registered query's engine.
        self.obs = observe or Observability()
        self._failures_total = self.obs.metrics.counter(
            "serena_query_failures_total",
            "Continuous-query evaluation failures captured by the tick loop",
        )
        self._registered_gauge = self.obs.metrics.gauge(
            "serena_queries_registered",
            "Continuous queries currently registered with the processor",
        )
        #: Shared-subplan registry every engine="shared" query leases its
        #: plan from: one per processor, so co-registered queries share
        #: physical subtrees.
        self.shared = SharedPlanRegistry(environment, observe=self.obs)
        #: Quiescence-aware scheduler for engine="shared" queries.
        self.scheduler = TickScheduler(environment, observe=self.obs)
        erm.on_discovery(self.scheduler.on_discovery_event)
        self._continuous: dict[str, ContinuousQuery] = {}
        #: Evaluation order (sorted names), maintained at register/
        #: deregister time instead of re-sorting every tick.
        self._order: list[str] = []
        self._discovery: list[DiscoveryQuery] = []
        #: relation -> service reference -> the row discovery inserted,
        #: and how many syncs changed that relation's rows.
        self._rows_by_service: dict[str, dict[str, tuple]] = {}
        self._tracked_writes: dict[str, int] = {}
        self._failures: deque[QueryFailure] = deque(maxlen=FAILURE_LOG_SIZE)
        #: Last number handed out by :meth:`_auto_name`; only ever grows.
        self._auto_names = 0

    @property
    def failures(self) -> list[QueryFailure]:
        """Continuous-query evaluation failures captured by the tick loop.

        A failing query never stops the other queries or the clock: the
        failure is logged here and evaluation of that query resumes at the
        next instant (a pervasive system must outlive one bad sensor).

        Retention policy: only the most recent :data:`FAILURE_LOG_SIZE`
        failures are kept — a long-running PEMS with one flaky service
        would otherwise grow the log without bound.  Older entries are
        dropped silently; call :meth:`clear_failures` after handling a
        batch.
        """
        return list(self._failures)

    def clear_failures(self) -> None:
        """Discard all retained evaluation failures."""
        self._failures.clear()

    # -- one-shot queries ----------------------------------------------------------

    def execute(self, query: Query) -> QueryResult:
        """Evaluate a one-shot query at the current instant."""
        return query.evaluate(self.environment, self.clock.now)

    def execute_sql(self, text: str) -> QueryResult:
        """Compile a Serena SQL query and evaluate it now."""
        from repro.lang.sql import compile_sql  # lang layers on pems

        return self.execute(compile_sql(text, self.environment))

    def register_continuous_sql(
        self, text: str, name: str | None = None
    ) -> ContinuousQuery:
        """Compile a Serena SQL query and register it as continuous."""
        from repro.lang.sql import compile_sql

        return self.register_continuous(
            compile_sql(text, self.environment, name), name
        )

    # -- continuous queries ----------------------------------------------------------

    def register_continuous(
        self, query: Query, name: str | None = None
    ) -> ContinuousQuery:
        """Register a continuous query, evaluated at every tick from now
        on, on the processor's engine (and, for ``"shared"``, on its
        registry and scheduler)."""
        key = name or query.name or self._auto_name()
        if key in self._continuous:
            raise SerenaError(f"continuous query {key!r} already registered")
        continuous = ContinuousQuery(
            query,
            self.environment,
            engine=self.engine,
            shared=self.shared,
            observe=self.obs,
        )
        self._continuous[key] = continuous
        insort(self._order, key)
        if self.engine == "shared":
            self.scheduler.register(key, continuous)
        self._registered_gauge.set(len(self._continuous))
        return continuous

    def deregister_continuous(self, name: str) -> None:
        if name not in self._continuous:
            raise SerenaError(f"no continuous query named {name!r}")
        continuous = self._continuous.pop(name)
        self._order.remove(name)
        self.scheduler.deregister(name)
        continuous.release()
        self._registered_gauge.set(len(self._continuous))

    def _auto_name(self) -> str:
        """``query-N`` for an unnamed registration: N is a per-processor
        sequence that skips taken names, so a deregistration never makes
        it hand out a name still in use."""
        while True:
            self._auto_names += 1
            key = f"query-{self._auto_names}"
            if key not in self._continuous:
                return key

    def continuous_query(self, name: str) -> ContinuousQuery:
        try:
            return self._continuous[name]
        except KeyError:
            raise SerenaError(f"no continuous query named {name!r}") from None

    @property
    def continuous_queries(self) -> dict[str, ContinuousQuery]:
        return dict(self._continuous)

    # -- service discovery queries -------------------------------------------------------

    def register_discovery(
        self,
        prototype_name: str,
        relation_name: str,
        service_attribute: str,
    ) -> DiscoveryQuery:
        """Keep ``relation_name`` synchronized with the services that
        implement ``prototype_name``.

        The relation must exist (create it with the table manager first);
        ``service_attribute`` is its service-reference column.  Rows for
        newly appeared services are inserted, rows of departed/expired
        services are deleted — while registered continuous queries keep
        running over the relation.
        """
        self.environment.prototype(prototype_name)  # must be declared
        schema = self.environment.schema(relation_name)
        if service_attribute not in schema.real_names:
            raise UnknownAttributeError(service_attribute, relation_name)
        discovery = DiscoveryQuery(prototype_name, relation_name, service_attribute)
        self._discovery.append(discovery)
        self._sync_discovery(discovery)
        return discovery

    def _sync_discovery(self, discovery: DiscoveryQuery) -> None:
        """Diff the relation against the currently available services.

        All appeared rows land in a single journal insert, all departed
        rows in a single delete — one write batch per relation per tick.
        The diff is a function of the registry's membership and of the
        rows tracked for the relation, so it is skipped while neither
        moved: a quiet tick costs two comparisons per discovery query.
        """
        relation = discovery.relation_name
        topology = self.erm.registry.topology_version
        writes = self._tracked_writes.get(relation, 0)
        if discovery.synced == (topology, writes):
            return
        prototype = self.environment.prototype(discovery.prototype_name)
        schema = self.environment.schema(relation)
        available = {s.reference: s for s in self.erm.available(prototype)}
        tracked = self._rows_by_service.setdefault(relation, {})
        appeared: list[tuple] = []
        for reference in sorted(available.keys() - tracked.keys()):
            row = discovery.build_row(available[reference], schema)
            values = schema.tuple_from_mapping(row)
            appeared.append(values)
            tracked[reference] = values
        departed = [
            tracked.pop(reference)
            for reference in sorted(tracked.keys() - available.keys())
        ]
        if appeared or departed:
            writes += 1
            self._tracked_writes[relation] = writes
        if appeared:
            self.tables.insert_tuples(relation, appeared)
        if departed:
            self.tables.delete_tuples(relation, departed)
        discovery.synced = (topology, writes)

    # -- the tick phases ---------------------------------------------------------------

    def sync_discovery(self) -> None:
        """The ``discovery.sync`` phase of :meth:`repro.pems.pems.PEMS.tick`:
        bring every discovery table to the service set of the current
        instant, so queries at τ see the services of τ."""
        for discovery in self._discovery:
            self._sync_discovery(discovery)

    def evaluate(self, instant: int) -> None:
        """The ``evaluate`` phase of :meth:`repro.pems.pems.PEMS.tick`:
        advance every registered continuous query to ``instant`` —
        evaluating the ones the scheduler marked affected and carrying
        the rest forward in O(1).

        While queries run, the service registry memoizes invocations per
        instant, so identical calls issued by different queries within
        one tick reach the device once.
        """
        registry = self.environment.registry
        registry.begin_instant_memo(instant)
        try:
            affected = self.scheduler.plan(instant)
            for name in list(self._order):
                continuous = self._continuous.get(name)
                if continuous is None:  # deregistered mid-tick
                    continue
                scheduled = name in self.scheduler
                try:
                    if scheduled and name not in affected:
                        continuous.carry_forward(instant)
                        self.scheduler.skipped(name)
                    else:
                        continuous.evaluate_at(instant)
                        if scheduled:
                            self.scheduler.evaluated(name, True)
                except Exception as exc:
                    self._failures.append(
                        QueryFailure.from_exception(instant, name, exc)
                    )
                    self._failures_total.inc()
                    if scheduled:
                        self.scheduler.evaluated(name, False)
        finally:
            registry.end_instant_memo()

    def __repr__(self) -> str:
        return (
            f"QueryProcessor({len(self._continuous)} continuous, "
            f"{len(self._discovery)} discovery queries)"
        )
