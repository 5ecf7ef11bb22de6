"""Quiescence-aware tick scheduling for registered continuous queries.

``QueryProcessor.evaluate`` used to walk *every* registered query at every
instant.  With thousands of queries over a mostly-idle environment that is
O(registered) work per tick even when nothing happened.  The
:class:`TickScheduler` maintains a dependency index from base XD-Relations
(and service prototypes) to the queries they feed, and per tick computes
the *affected* set:

* queries over a relation whose journal ``revision`` moved (or whose
  stored object was swapped) since the last tick,
* **live** queries — those whose physical plan contains a time-driven
  executor (window expiry, per-instant stream emission, streaming
  invocation, in-flight or pending invocations): their output can change
  with no source activity, so they are evaluated at every instant,
* freshly registered queries (no result yet), failed queries (retried
  every instant, matching the naive engine's failure log), and queries
  marked dirty by a service discovery event on a prototype they invoke.

Everything else provably evaluates to its previous result with an empty
delta and no actions, so the query processor *carries it forward*
(:meth:`~repro.continuous.continuous_query.ContinuousQuery.carry_forward`)
in O(1).  Tick cost becomes O(#indexed relations + #affected queries).
"""

from __future__ import annotations

from repro.algebra.operators.base import Operator
from repro.algebra.operators.scan import Scan
from repro.errors import SerenaError
from repro.exec.executors import InvocationExec
from repro.model.environment import PervasiveEnvironment
from repro.obs.observe import Observability

__all__ = ["TickScheduler"]


def _plan_dependencies(node: Operator) -> tuple[frozenset[str], frozenset[str]]:
    """The base relation names and invoked prototype names of a plan."""
    relations: set[str] = set()
    prototypes: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Scan):
            relations.add(current.name)
        binding = getattr(current, "binding_pattern", None)
        if binding is not None:
            prototypes.add(binding.prototype.name)
        stack.extend(current.children)
    return frozenset(relations), frozenset(prototypes)


class TickScheduler:
    """Decides, per instant, which scheduled queries must be evaluated."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        observe: Observability | None = None,
    ):
        self.environment = environment
        #: Observability facade (the query processor passes the PEMS-wide
        #: one); the evaluation/skip counters are backed by it.
        self.obs = observe or Observability()
        metrics = self.obs.metrics
        self._evaluations_total = metrics.counter(
            "serena_query_evaluations_total",
            "Continuous-query evaluations the scheduler could not skip",
        )
        self._skips_total = metrics.counter(
            "serena_query_skips_total",
            "Quiescent evaluations carried forward in O(1)",
        )
        self._scheduled_gauge = metrics.gauge(
            "serena_queries_scheduled",
            "Continuous queries currently indexed by the tick scheduler",
        )
        #: relation name → names of queries scanning it.
        self._rel_index: dict[str, set[str]] = {}
        #: prototype name → names of queries invoking it.
        self._proto_index: dict[str, set[str]] = {}
        #: query name → (relation deps, prototype deps).
        self._deps: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        #: relation name → (stored object, revision) at the last plan().
        self._tokens: dict[str, tuple] = {}
        self._fresh: set[str] = set()
        self._dirty: set[str] = set()
        self._failed: set[str] = set()
        self._live: set[str] = set()
        self._static_live: set[str] = set()
        #: query name → its private invocation executors (dynamic liveness).
        self._dynamic: dict[str, tuple[InvocationExec, ...]] = {}

    @property
    def evaluations(self) -> int:
        """Total evaluations recorded (backed by
        ``serena_query_evaluations_total``)."""
        return int(self._evaluations_total.value)

    @property
    def skips(self) -> int:
        """Total carried-forward evaluations (backed by
        ``serena_query_skips_total``)."""
        return int(self._skips_total.value)

    def __contains__(self, name: object) -> bool:
        return name in self._deps

    def __len__(self) -> int:
        return len(self._deps)

    @property
    def stats(self) -> dict[str, int]:
        return {
            "scheduled": len(self._deps),
            "evaluations": self.evaluations,
            "skips": self.skips,
        }

    # -- registration ------------------------------------------------------------

    def register(self, name: str, continuous) -> None:
        """Index a registered continuous query's dependencies and classify
        its executors' liveness."""
        if name in self._deps:
            raise SerenaError(f"query {name!r} is already scheduled")
        relations, prototypes = _plan_dependencies(continuous.query.root)
        self._deps[name] = (relations, prototypes)
        for relation in relations:
            self._rel_index.setdefault(relation, set()).add(name)
        for prototype in prototypes:
            self._proto_index.setdefault(prototype, set()).add(name)
        executors = continuous.executors()
        if not executors:
            # No physical plan to classify (naive engine): never skip.
            self._static_live.add(name)
            self._dynamic[name] = ()
        else:
            self._dynamic[name] = tuple(
                e for e in executors if isinstance(e, InvocationExec)
            )
            if any(
                e.live for e in executors if not isinstance(e, InvocationExec)
            ):
                self._static_live.add(name)
        self._fresh.add(name)
        self._scheduled_gauge.set(len(self._deps))

    def deregister(self, name: str) -> None:
        deps = self._deps.pop(name, None)
        if deps is None:
            return
        relations, prototypes = deps
        for relation in relations:
            bucket = self._rel_index.get(relation)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._rel_index[relation]
                    self._tokens.pop(relation, None)
        for prototype in prototypes:
            bucket = self._proto_index.get(prototype)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del self._proto_index[prototype]
        for group in (
            self._fresh,
            self._dirty,
            self._failed,
            self._live,
            self._static_live,
        ):
            group.discard(name)
        self._dynamic.pop(name, None)
        self._scheduled_gauge.set(len(self._deps))

    def on_discovery_event(self, event) -> None:
        """ERM hook: a service appeared/left/expired — wake the queries
        invoking any prototype it implements for the next tick."""
        for prototype_name in event.service.prototype_names:
            dependents = self._proto_index.get(prototype_name)
            if dependents:
                self._dirty |= dependents

    def _token(self, relation_name: str) -> tuple:
        try:
            stored = self.environment.relation(relation_name)
        except Exception:
            return (None, None)
        return (stored, getattr(stored, "revision", None))

    def plan(self, instant: int) -> set[str]:
        """The names of the scheduled queries that must be evaluated at
        ``instant``; everything else may be carried forward."""
        affected = set(self._fresh)
        affected |= self._dirty
        affected |= self._live
        affected |= self._failed
        for relation, dependents in self._rel_index.items():
            new = self._token(relation)
            old = self._tokens.get(relation)
            if old is None or old[0] is not new[0] or old[1] != new[1]:
                self._tokens[relation] = new
                affected |= dependents
        self._dirty = set()
        return affected

    # -- evaluation feedback -----------------------------------------------------

    def evaluated(self, name: str, ok: bool) -> None:
        """Record the outcome of one query evaluation; recomputes the
        query's dynamic liveness (pending/in-flight invocations only
        change during evaluation)."""
        if name not in self._deps:
            return
        self._fresh.discard(name)
        self._evaluations_total.inc()
        if not ok:
            # Failed queries retry every instant — the naive engine logs
            # one failure per tick while the cause persists, and so do we.
            self._failed.add(name)
        else:
            self._failed.discard(name)
        # Liveness is recomputed on *every* outcome: a query whose
        # streaming/pending invocations drained (e.g. its provider was
        # quarantined away) must leave _live, or it would be re-evaluated every tick
        # forever — defeating quiescence.  Before this downgrade ran on
        # the success path only, so a failure left a stale _live entry.
        if name in self._static_live or any(
            e.live for e in self._dynamic.get(name, ())
        ):
            self._live.add(name)
        else:
            self._live.discard(name)

    def skipped(self, name: str) -> None:
        """Record one carried-forward (skipped) evaluation."""
        self._skips_total.inc()
