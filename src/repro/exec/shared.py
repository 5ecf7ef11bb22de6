"""Cross-query shared-subplan execution.

N registered continuous queries over the same ``sensors ⋈ getTemperature``
prefix should not pay the scan, join and maintenance cost N times.  This
module provides:

* :class:`SharedPlanRegistry` — keyed by *canonical* operator subtrees
  (structural ``__eq__``/``__hash__`` on the
  :func:`~repro.algebra.fingerprint.canonical_plan` normal form, so
  Table-5-equivalent subplans coincide), it lowers each distinct shareable
  subtree once and hands the **same executor instance** to every query
  whose plan contains it, with refcounting so deregistration releases
  state exactly when the last owner leaves;
* :class:`SharedEngine` — the per-query driver, and the only physical
  engine: it acquires the query's plan from a registry (a private one when
  the caller supplies none), advances it instant by instant and
  materializes the root's relation only on instants whose delta is
  non-empty.

What may be shared
------------------
A subtree is shareable when every node in it is registration-independent:
its state at instant τ is a function of the environment's history alone,
never of *when* the owning query was registered, and advancing it has no
side effects.  That holds for scans, selections, projections, renamings,
assignments, joins, set operators, aggregates, streaming operators, the
streaming invocation β∞ (it re-invokes its whole operand every instant and
carries no actions) and windows directly over a stream scan, which are
leaves reading the stream's XD-Relation journal.  It does
**not** hold for the invocation operator β: its per-tuple result cache is
frozen at first invocation (two queries registered at different instants
may legitimately hold different cached results for the same tuple), and an
active binding pattern triggers actions that belong to one query's action
set — so every β node always gets a private executor, over (possibly
shared) children.  A consequence the engine relies on: **shared subtrees
never produce actions**.

A query leasing a shared subtree after other queries have run it finds the
executor *warm*; the executors' ``fresh_view``/``_pull`` protocol (see
:mod:`repro.exec.executors`) synthesizes the first-tick catch-up delta so
the late query still observes exactly what a freshly registered one would.
"""

from __future__ import annotations

import hashlib

from repro.algebra.context import EvaluationContext
from repro.algebra.fingerprint import canonical_plan, structural_key
from repro.algebra.operators.base import Operator
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.window import Window
from repro.algebra.query import Query, QueryResult
from repro.errors import SerenaError
from repro.exec.delta import Delta
from repro.exec.executors import Executor, ScanExec
from repro.exec.lowering import LOWERINGS, operands
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation
from repro.obs.observe import Observability

__all__ = ["SharedPlanRegistry", "SharedPlan", "SharedEngine"]


def _digest(node: Operator) -> str:
    """Fingerprint of an already-canonical subtree."""
    return hashlib.sha1(structural_key(node).encode("utf-8")).hexdigest()[:16]


class _Entry:
    """One shared subtree: its executor and how many queries lease it."""

    __slots__ = ("executor", "refcount", "fingerprint")

    def __init__(self, executor: Executor, fingerprint: str):
        self.executor = executor
        self.refcount = 0
        self.fingerprint = fingerprint


class SharedPlanRegistry:
    """Lowers each distinct shareable canonical subtree exactly once.

    One registry per environment (normally owned by the PEMS query
    processor).  Entries are keyed by the canonical operator subtree
    itself; a query leases every distinct shareable subtree of its plan —
    including nested ones, so refcounts stay symmetric under release and a
    parent entry can never outlive its children.
    """

    def __init__(
        self,
        environment: PervasiveEnvironment,
        observe: Observability | None = None,
    ):
        self.environment = environment
        self._entries: dict[Operator, _Entry] = {}
        #: Observability facade (the query processor passes the PEMS-wide
        #: one); a standalone registry makes its own.
        self.obs = observe or Observability()
        metrics = self.obs.metrics
        self._lease_hits_total = metrics.counter(
            "serena_shared_lease_hits_total",
            "Subtree leases satisfied by an already-lowered shared executor",
        )
        self._lease_misses_total = metrics.counter(
            "serena_shared_lease_misses_total",
            "Subtree leases that lowered a new shared executor",
        )
        self._subplans_gauge = metrics.gauge(
            "serena_shared_subplans",
            "Distinct shared subtrees currently live in the registry",
        )
        self._refcount_gauge = metrics.gauge(
            "serena_shared_refcount_total",
            "Sum of refcounts over all live shared subtrees",
        )

    def _sync_gauges(self) -> None:
        self._subplans_gauge.set(len(self._entries))
        self._refcount_gauge.set(self.total_refcount)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_refcount(self) -> int:
        return sum(entry.refcount for entry in self._entries.values())

    def refcounts(self) -> dict[str, int]:
        """Fingerprint → refcount of every live entry."""
        return {e.fingerprint: e.refcount for e in self._entries.values()}

    def lookup(self, plan: Operator | Query) -> Executor | None:
        """The shared executor currently registered for ``plan`` (after
        canonicalization), or None — the identity tests hang off this."""
        entry = self._entries.get(canonical_plan(plan))
        return entry.executor if entry is not None else None

    # -- shareability ------------------------------------------------------------

    def _node_shareable(self, node: Operator) -> bool:
        kind = type(node)
        if kind is Invocation:
            return False  # registration-time caches + action side effects
        if kind is StreamingInvocation:
            return not node.binding_pattern.active  # type: ignore[attr-defined]
        if kind is Window:
            # Only a journal-fed window has registration-independent
            # contents; a window over a derived stream buffers what it
            # saw since *its* first tick.
            return not operands(node)
        return True

    # -- acquire / release -------------------------------------------------------

    def acquire(self, plan: Operator | Query) -> "SharedPlan":
        """Build (or reuse) the physical plan for ``plan``: shareable
        subtrees come refcounted from the registry, the rest is private.
        This is the one walk that turns a logical plan into executors."""
        canonical = canonical_plan(plan)
        leased: dict[Operator, None] = {}
        root, _ = self._build(canonical, leased, {})
        self._sync_gauges()
        return SharedPlan(self, root, canonical, tuple(leased))

    def _build(
        self,
        node: Operator,
        leased: dict[Operator, None],
        built: dict[int, tuple[Executor, bool]],
    ) -> tuple[Executor, bool]:
        """Post-order: ``node``'s executor, and whether it is leased.  A
        node is leased when its own kind is shareable and every operand
        was leased in this walk; a leased parent's entry already holds
        exactly its operands' entries as children."""
        done = built.get(node.uid)
        if done is not None:  # a node shared within this one plan
            return done
        built_operands = [self._build(c, leased, built) for c in operands(node)]
        children = [executor for executor, _ in built_operands]
        leasable = self._node_shareable(node) and all(
            operand_leased for _, operand_leased in built_operands
        )
        entry = self._entries.get(node) if leasable else None
        if entry is None:
            executor = LOWERINGS[type(node)](node, *children)
            if leasable:
                self._lease_misses_total.inc()
                entry = self._entries[node] = _Entry(executor, _digest(node))
        else:
            self._lease_hits_total.inc()
            executor = entry.executor
        if entry is not None and node not in leased:
            entry.refcount += 1
            leased[node] = None
        built[node.uid] = (executor, leasable)
        return executor, leasable

    def _release(self, leases: tuple[Operator, ...]) -> None:
        for node in leases:
            entry = self._entries.get(node)
            if entry is None:
                continue
            entry.refcount -= 1
            if entry.refcount <= 0:
                del self._entries[node]
        self._sync_gauges()


class SharedPlan:
    """One query's lease on the registry: the physical root plus every
    shared subtree it holds a refcount on."""

    def __init__(
        self,
        registry: SharedPlanRegistry,
        root: Executor,
        canonical: Operator,
        leases: tuple[Operator, ...],
    ):
        self.registry = registry
        self.root = root
        self.canonical = canonical
        self._leases = leases
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Give back every leased subtree (idempotent); entries whose
        refcount reaches zero are dropped, executor state and all."""
        if self._released:
            return
        self._released = True
        self.registry._release(self._leases)

    def summary(self) -> dict:
        """The sharing summary: plan fingerprint, executor counts, and
        each leased subtree with its current refcount."""
        executors: dict[int, Executor] = {}
        for executor in self.root.walk():
            executors.setdefault(id(executor), executor)
        shared_ids = {
            id(entry.executor) for entry in self.registry._entries.values()
        }
        shared = sum(1 for i in executors if i in shared_ids)
        leases = []
        for node in self._leases:
            entry = self.registry._entries.get(node)
            if entry is None:
                continue
            leases.append(
                {
                    "fingerprint": entry.fingerprint,
                    "operator": node.symbol(),
                    "refcount": entry.refcount,
                }
            )
        return {
            "fingerprint": _digest(self.canonical),
            "executors": len(executors),
            "shared": shared,
            "private": len(executors) - shared,
            "leases": leases,
        }


class SharedEngine:
    """Delta-driven execution of one continuous query over a physical
    plan leased from a registry; produces the same
    :class:`~repro.algebra.query.QueryResult` per instant as the naive
    engine.  Re-ticking the current instant is an idempotent no-op
    (memoized in the executors).

    The first tick over a *warm* root (the whole plan was already running
    for other queries) materializes the root's fresh view and reports it
    as the initial insertion delta, which is exactly what a freshly built
    plan would have produced — except over a journaled scan, whose
    reported delta is registration-independent already.
    """

    def __init__(
        self,
        query: Query,
        environment: PervasiveEnvironment,
        registry: SharedPlanRegistry | None = None,
        observe: Observability | None = None,
    ):
        if registry is None:
            registry = SharedPlanRegistry(environment, observe=observe)
        elif registry.environment is not environment:
            raise SerenaError(
                "shared-plan registry belongs to a different environment"
            )
        self.query = query
        self.environment = environment
        self.registry = registry
        self.obs = observe or registry.obs
        self._materializations_total = self.obs.metrics.counter(
            "serena_materializations_total",
            "Root X-Relations rebuilt because the tick's delta was non-empty",
            engine="shared",
        )
        self.plan = registry.acquire(query)
        self.root: Executor = self.plan.root
        self._relation: XRelation | None = None
        self._first = True
        self._resync = False
        self._synth_reported: Delta | None = None

    def tick(self, instant: int) -> QueryResult:
        ctx = EvaluationContext(self.environment, instant, continuous=True)
        root_warm = not self.root.is_first_tick
        change = self.root.tick(ctx)
        if self._first and root_warm:
            tuples = frozenset(self.root.fresh_view())
            self._relation = XRelation(
                self.query.schema, tuples, validated=True
            )
            self._materializations_total.inc()
            if isinstance(self.root, ScanExec) and self.root.journaled:
                self._synth_reported = None  # journal delta is already right
            else:
                self._synth_reported = Delta(tuples, frozenset())
            # The synthesized view may differ from the shared root's
            # maintained current (e.g. a warm stream's emission); force a
            # rebuild on the next tick even if the root reports no change.
            self._resync = True
        else:
            if self._resync or change or self._relation is None:
                self._relation = XRelation(
                    self.query.schema,
                    frozenset(self.root.current),
                    validated=True,
                )
                self._materializations_total.inc()
            self._resync = False
            self._synth_reported = None
        self._first = False
        return QueryResult(self._relation, ctx.action_set, instant)

    @property
    def reported(self) -> Delta:
        if self._synth_reported is not None:
            return self._synth_reported
        return self.root.reported

    @property
    def change(self) -> Delta:
        return self.root.change

    def executors(self) -> list[Executor]:
        """All executors of the physical plan, deduplicated (the plan is
        a DAG under sharing)."""
        seen: set[int] = set()
        out: list[Executor] = []
        for executor in self.root.walk():
            if id(executor) not in seen:
                seen.add(id(executor))
                out.append(executor)
        return out

    def release(self) -> None:
        """Release every shared subtree this engine leases."""
        self.plan.release()
