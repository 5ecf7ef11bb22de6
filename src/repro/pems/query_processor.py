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
from typing import Callable, Mapping

from repro.algebra.query import Query, QueryResult
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.time import VirtualClock
from repro.errors import SerenaError, UnknownAttributeError
from repro.exec.lowering import check_engine
from repro.exec.reoptimizer import FeedbackReoptimizer
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedPlanRegistry
from repro.model.environment import PervasiveEnvironment
from repro.model.services import Service
from repro.obs.observe import Observability
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.table_manager import ExtendedTableManager

__all__ = ["QueryProcessor", "DiscoveryQuery"]

#: Builds the relation row for a discovered service; defaults to
#: ``{service_attribute: reference, **properties}`` restricted to the
#: relation's real attributes.
RowBuilder = Callable[[Service], Mapping[str, object]]


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
    row_builder: RowBuilder | None = None
    #: What the last sync saw — ``(registry topology_version, writes to
    #: the relation's tracked rows)``; while both stand still there is
    #: nothing to diff.
    synced: tuple[int, int] | None = field(default=None, repr=False, compare=False)

    def build_row(self, service: Service, schema) -> dict[str, object]:
        if self.row_builder is not None:
            return dict(self.row_builder(service))
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
        Execution engine for registered continuous queries
        (:data:`~repro.exec.lowering.ENGINES`): ``"shared"`` (default —
        the delta-driven physical engine of :mod:`repro.exec`, every
        query's plan leased from this processor's registry and driven by
        its quiescence-aware tick scheduler) or ``"naive"`` (full
        re-evaluation each tick, the differential-testing oracle).
    """

    def __init__(
        self,
        environment: PervasiveEnvironment,
        clock: VirtualClock,
        erm: EnvironmentResourceManager,
        tables: ExtendedTableManager,
        engine: str = "shared",
        observe: "Observability | str | None" = None,
    ):
        self.environment = environment
        self.clock = clock
        self.erm = erm
        self.tables = tables
        check_engine(engine)
        self.engine = engine
        #: Observability facade shared across the processor, its scheduler,
        #: shared-plan registry and every registered query's engine.
        self.obs = (
            Observability.disabled()
            if observe is None
            else Observability.coerce(observe)
        )
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
        #: Opt-in feedback re-optimizer (see :meth:`enable_reoptimization`).
        self.reoptimizer: FeedbackReoptimizer | None = None
        clock.on_tick(self._on_tick)

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
        self,
        text: str,
        name: str | None = None,
        keep_history: bool = False,
        engine: str | None = None,
    ) -> ContinuousQuery:
        """Compile a Serena SQL query and register it as continuous."""
        from repro.lang.sql import compile_sql

        return self.register_continuous(
            compile_sql(text, self.environment, name),
            name,
            keep_history,
            engine,
        )

    # -- continuous queries ----------------------------------------------------------

    def register_continuous(
        self,
        query: Query,
        name: str | None = None,
        keep_history: bool = False,
        engine: str | None = None,
    ) -> ContinuousQuery:
        """Register a continuous query, evaluated at every tick from now on.

        ``engine`` overrides the processor-wide engine for this query
        (e.g. a naive oracle next to the shared plans); a shared-engine
        query always runs on the processor's registry and scheduler.
        """
        key = name or query.name or f"query-{len(self._continuous) + 1}"
        if key in self._continuous:
            raise SerenaError(f"continuous query {key!r} already registered")
        effective = engine if engine is not None else self.engine
        continuous = ContinuousQuery(
            query,
            self.environment,
            keep_history,
            engine=effective,
            shared=self.shared,
            observe=self.obs,
        )
        self._continuous[key] = continuous
        insort(self._order, key)
        if effective == "shared":
            self.scheduler.register(key, continuous)
        if self.reoptimizer is not None:
            self.reoptimizer.watch(key, continuous, self.clock.now)
        self._registered_gauge.set(len(self._continuous))
        return continuous

    def deregister_continuous(self, name: str) -> None:
        if name not in self._continuous:
            raise SerenaError(f"no continuous query named {name!r}")
        continuous = self._continuous.pop(name)
        self._order.remove(name)
        self.scheduler.deregister(name)
        if self.reoptimizer is not None:
            self.reoptimizer.unwatch(name)
        continuous.release()
        self._registered_gauge.set(len(self._continuous))

    def enable_reoptimization(self, **kwargs) -> FeedbackReoptimizer:
        """Turn on feedback-driven re-optimization (DESIGN.md §13).

        Already-registered swappable queries start being watched from the
        current instant; keyword arguments are forwarded to
        :class:`~repro.exec.reoptimizer.FeedbackReoptimizer` (divergence
        factor, observation window, cooldown, plan budget).  Idempotent
        only in the sense that calling it again replaces the reoptimizer
        and restarts every observation window.
        """
        kwargs.setdefault("observe", self.obs)
        self.reoptimizer = FeedbackReoptimizer(self.environment, **kwargs)
        for name, continuous in self._continuous.items():
            self.reoptimizer.watch(name, continuous, self.clock.now)
        return self.reoptimizer

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
        row_builder: RowBuilder | None = None,
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
        discovery = DiscoveryQuery(
            prototype_name, relation_name, service_attribute, row_builder
        )
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

    # -- the tick loop ---------------------------------------------------------------------

    def _on_tick(self, instant: int) -> None:
        """Per-instant work: sync discovery tables, then advance every
        registered continuous query — evaluating the ones the scheduler
        marked affected and carrying the rest forward in O(1).

        Ordering matters and mirrors the prototype: discovery updates are
        applied first so queries at instant τ see the service set of τ.
        While queries run, the service registry memoizes invocations per
        instant, so identical calls issued by different queries within
        one tick reach the device once.
        """
        if self.obs.tracing_on:
            with self.obs.tracer.span(
                "queries.tick", instant, queries=len(self._continuous)
            ):
                self._tick_queries(instant, tracing=True)
        else:
            self._tick_queries(instant, tracing=False)

    def _tick_queries(self, instant: int, tracing: bool) -> None:
        tracer = self.obs.tracer
        for discovery in self._discovery:
            self._sync_discovery(discovery)
        registry = self.environment.registry
        registry.begin_instant_memo(instant)
        try:
            if tracing:
                with tracer.span("scheduler.plan", instant) as plan_span:
                    affected = self.scheduler.plan(instant)
                    plan_span.attributes["affected"] = len(affected)
                    plan_span.attributes["scheduled"] = len(self.scheduler)
            else:
                affected = self.scheduler.plan(instant)
            for name in list(self._order):
                continuous = self._continuous.get(name)
                if continuous is None:  # deregistered by a listener mid-tick
                    continue
                scheduled = name in self.scheduler
                try:
                    if scheduled and name not in affected:
                        if tracing:
                            with tracer.span("query.carry", instant, query=name):
                                continuous.carry_forward(instant)
                        else:
                            continuous.carry_forward(instant)
                        self.scheduler.skipped(name)
                    else:
                        if tracing:
                            with tracer.span(
                                "query.evaluate", instant, query=name
                            ):
                                continuous.evaluate_at(instant)
                                self._trace_deltas(tracer, continuous, instant)
                        else:
                            continuous.evaluate_at(instant)
                        if scheduled:
                            self.scheduler.evaluated(name, True)
                        if self.reoptimizer is not None:
                            self.reoptimizer.observe(name, continuous, instant)
                except Exception as exc:
                    self._failures.append(
                        QueryFailure.from_exception(instant, name, exc)
                    )
                    self._failures_total.inc()
                    if scheduled:
                        self.scheduler.evaluated(name, False)
            if self.reoptimizer is not None:
                # After the evaluation loop: swapped plans take effect at
                # the *next* instant, from strictly earlier observations.
                self.reoptimizer.reoptimize(
                    self._continuous, self.scheduler, instant
                )
        finally:
            registry.end_instant_memo()

    @staticmethod
    def _trace_deltas(tracer, continuous: ContinuousQuery, instant: int) -> None:
        """Emit one ``executor.delta`` event per physical executor that
        changed at this instant (full-trace mode only)."""
        for executor in continuous.executors():
            if getattr(executor, "_instant", None) != instant:
                continue  # not advanced this instant (e.g. pruned subtree)
            change = executor.change
            if change.inserted or change.deleted:
                tracer.event(
                    "executor.delta",
                    instant,
                    operator=executor.node.symbol(),
                    executor=type(executor).__name__,
                    inserted=len(change.inserted),
                    deleted=len(change.deleted),
                )

    def __repr__(self) -> str:
        return (
            f"QueryProcessor({len(self._continuous)} continuous, "
            f"{len(self._discovery)} discovery queries)"
        )
