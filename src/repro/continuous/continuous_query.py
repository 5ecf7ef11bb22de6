"""Continuous queries over XD-Relations (Section 4.2).

A continuous query re-evaluates a Serena plan at every time instant,
keeping per-node state across instants in a persistent evaluation context:

* the invocation operator's cache, so that "a binding pattern is actually
  invoked only for newly inserted tuples, and not for every tuple from the
  relation at each time instant";
* window buffers and delta bookkeeping for the W and S operators.

The result of each tick is a :class:`~repro.algebra.query.QueryResult`; if
the query's last operator is a streaming operator (like Q4 of Table 4),
the per-tick relation is the stream's emission at that instant and
:attr:`ContinuousQuery.emitted` accumulates the output stream.

Two execution engines are available (the ``engine`` parameter,
:data:`~repro.exec.lowering.ENGINES`):

* ``"shared"`` (default) — the plan is lowered to the delta-driven
  physical executors of :mod:`repro.exec`; steady-state tick cost is
  proportional to the environment's churn, not to relation sizes.  The
  physical plan is leased from a
  :class:`~repro.exec.shared.SharedPlanRegistry`: structurally equivalent
  subplans of co-registered queries run on the *same* executor instances.
  A standalone query gets a private registry (nothing to share against);
  the PEMS query processor passes its own, together with its tick
  scheduler, for multi-query workloads.
* ``"naive"`` — the logical plan re-evaluates its full instantaneous
  result each tick.  Kept as the differential-testing oracle; both
  engines produce identical results, deltas, emissions and actions at
  every instant.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algebra.actions import Action, ActionSet
from repro.algebra.context import EvaluationContext
from repro.algebra.query import Query, QueryResult
from repro.errors import SerenaError
from repro.exec.delta import EMPTY_DELTA, Delta
from repro.exec.lowering import check_engine
from repro.exec.shared import SharedEngine, SharedPlanRegistry
from repro.model.environment import PervasiveEnvironment
from repro.obs.observe import Observability

__all__ = ["ContinuousQuery"]

#: Shared by every carried-forward result; ActionSet is a frozenset, so
#: one instance is safe and keeps the O(1) carry path allocation-free.
_NO_ACTIONS = ActionSet()


class ContinuousQuery:
    """A registered continuous query with persistent evaluation state."""

    def __init__(
        self,
        query: Query,
        environment: PervasiveEnvironment,
        keep_history: bool = False,
        engine: str = "shared",
        shared: SharedPlanRegistry | None = None,
        observe: "Observability | str | None" = None,
    ):
        check_engine(engine)
        self.query = query
        self.environment = environment
        self.engine = engine
        #: Observability facade shared with the physical engine (the PEMS
        #: query processor passes its environment-wide one).
        self.obs = (
            Observability.disabled()
            if observe is None
            else Observability.coerce(observe)
        )
        #: The physical engine (None on the naive engine).  Without a
        #: caller-supplied registry the query gets a private one: correct,
        #: just with nothing to share against.
        self._engine: SharedEngine | None = (
            SharedEngine(query, environment, shared, observe=self.obs)
            if engine == "shared"
            else None
        )
        self._states: dict[int, dict[str, Any]] = {}
        self._last_instant = -1
        self._last_result: QueryResult | None = None
        self._carried = False
        self._all_actions: list[Action] = []
        self._emitted: list[tuple[int, tuple]] = []
        self._history: list[QueryResult] | None = [] if keep_history else None
        self._listeners: list[Callable[[QueryResult], None]] = []
        #: Plan-swap bookkeeping (see :meth:`swap_plan`): the relation
        #: right before the last swap, and the netted reported delta of
        #: the first post-swap evaluation.
        self._swap_baseline: frozenset[tuple] | None = None
        self._reported_override: Delta | None = None
        #: How many times :meth:`swap_plan` replaced the physical plan.
        self.swaps = 0

    # -- observation -------------------------------------------------------------

    def on_result(self, listener: Callable[[QueryResult], None]) -> None:
        """Register a callback fired after each evaluation (real-time
        consumers: GUIs, alert sinks...)."""
        self._listeners.append(listener)

    @property
    def last_result(self) -> QueryResult | None:
        return self._last_result

    @property
    def history(self) -> list[QueryResult]:
        if self._history is None:
            raise SerenaError(
                "history was not enabled; construct with keep_history=True"
            )
        return list(self._history)

    @property
    def actions(self) -> ActionSet:
        """All actions triggered since registration (cumulative)."""
        return ActionSet(self._all_actions)

    @property
    def action_log(self) -> list[Action]:
        """All actions in trigger order (with duplicates, unlike the set)."""
        return list(self._all_actions)

    @property
    def emitted(self) -> list[tuple[int, tuple]]:
        """For stream-producing queries: the accumulated (instant, tuple)
        output stream."""
        return list(self._emitted)

    @property
    def last_reported_delta(self) -> Delta:
        """The Section 4.2 reported delta of the last evaluation — empty
        when the last instant was carried forward."""
        if self._last_result is None:
            raise SerenaError(
                f"continuous query {self.query.name!r} has not been "
                "evaluated yet"
            )
        if self._carried:
            return EMPTY_DELTA
        if self._reported_override is not None:
            # First evaluation after a plan swap: the cold plan's own
            # reported delta describes a from-scratch materialization, not
            # the change the *query* observed — return the net difference
            # against the pre-swap relation instead (two-delta contract).
            return self._reported_override
        if self._engine is not None:
            return self._engine.reported
        ctx = EvaluationContext(
            self.environment, self._last_instant, self._states, continuous=True
        )
        return Delta(
            frozenset(self.query.root.inserted(ctx)),
            frozenset(self.query.root.deleted(ctx)),
        )

    @property
    def sharing_summary(self) -> dict | None:
        """The plan fingerprint, shared/private executor counts and leased
        subtrees (None on the naive engine, which has no physical plan)."""
        if self._engine is None:
            return None
        return self._engine.plan.summary()

    def executors(self) -> list:
        """The executors of the physical plan ([] on the naive engine)."""
        if self._engine is None:
            return []
        return self._engine.executors()

    def release(self) -> None:
        """Release engine resources (shared-subplan refcounts); idempotent.
        Called by the query processor on deregistration."""
        if self._engine is not None:
            self._engine.release()

    # -- plan swapping ------------------------------------------------------------

    @property
    def swappable(self) -> bool:
        """Whether :meth:`swap_plan` may replace this query's plan.

        Three classes are excluded: the naive engine (no physical plan),
        stream-typed queries (emissions depend on plan registration time,
        so a cold plan would re-emit history) and queries invoking an
        *active* prototype (a cold invocation executor would re-fire the
        side-effecting actions for every already-seen tuple).
        """
        if self._engine is None or self.query.is_stream:
            return False
        stack = [self.query.root]
        while stack:
            node = stack.pop()
            binding = getattr(node, "binding_pattern", None)
            if binding is not None and binding.prototype.active:
                return False
            stack.extend(node.children)
        return True

    def swap_plan(self, query: Query) -> None:
        """Replace the physical plan in place with a re-lowered ``query``
        (same result schema), preserving the two-delta contract.

        The new engine is built *before* the old one is released, so
        every structurally common subtree is re-leased warm from the
        registry (its refcount never reaches zero) and only the genuinely
        restructured executors start cold.  The first
        post-swap evaluation reports the *net* delta against the pre-swap
        relation — for an equivalent plan that is the ordinary per-tick
        delta, exactly as if no swap had happened.
        """
        if not self.swappable:
            raise SerenaError(
                f"continuous query {self.query.name!r} is not swappable "
                "(naive engine, stream query, or active binding pattern)"
            )
        if query.root.schema.names != self.query.root.schema.names:
            raise SerenaError(
                f"swap_plan for {self.query.name!r}: the new plan's output "
                f"schema {query.root.schema.names} differs from "
                f"{self.query.root.schema.names}"
            )
        old_engine = self._engine
        # Acquire-before-release: common subtrees stay warm.
        new_engine = SharedEngine(
            query, self.environment, old_engine.registry, observe=self.obs
        )
        if self._last_result is not None:
            self._swap_baseline = frozenset(self._last_result.relation)
            if not self._carried and self._reported_override is None:
                # Until the new plan's first tick, ``last_reported_delta``
                # must keep describing the evaluation that already
                # happened — freeze the outgoing engine's delta.
                self._reported_override = old_engine.reported
        old_engine.release()
        self.query = query
        self._engine = new_engine
        self.swaps += 1

    # -- evaluation ---------------------------------------------------------------

    def evaluate_at(self, instant: int) -> QueryResult:
        """Evaluate the query at ``instant`` (must be non-decreasing).

        Re-evaluating the current instant is idempotent: the cached result
        is returned and no bookkeeping (actions, emissions, history,
        listeners) happens twice.
        """
        if instant < self._last_instant:
            raise SerenaError(
                f"continuous query {self.query.name!r}: evaluation instants "
                f"must be non-decreasing (got {instant} after "
                f"{self._last_instant})"
            )
        if instant == self._last_instant and self._last_result is not None:
            return self._last_result
        if self._engine is not None:
            result = self._engine.tick(instant)
        else:
            ctx = EvaluationContext(
                self.environment, instant, self._states, continuous=True
            )
            result = self.query.evaluate_in(ctx)
        self._last_instant = instant
        self._last_result = result
        self._carried = False
        if self._swap_baseline is not None:
            relation = frozenset(result.relation)
            self._reported_override = Delta(
                relation - self._swap_baseline,
                self._swap_baseline - relation,
            )
            self._swap_baseline = None
        else:
            self._reported_override = None
        self._all_actions.extend(
            sorted(
                result.actions,
                key=lambda a: (
                    a.binding_pattern.prototype.name,
                    str(a.service),
                    tuple(repr(v) for v in a.inputs),
                ),
            )
        )
        if self.query.is_stream:
            self._emitted.extend((instant, t) for t in result.relation)
        if self._history is not None:
            self._history.append(result)
        for listener in list(self._listeners):
            listener(result)
        return result

    def carry_forward(self, instant: int) -> QueryResult:
        """Advance to ``instant`` without evaluating: reuse the previous
        result relation with an empty delta and no actions.

        Only sound when the caller (the tick scheduler) has established
        that none of the query's sources changed and its plan has no
        time-driven (live) executor — the evaluation would then provably
        reproduce the cached relation.  History and listeners observe the
        carried result exactly as if it had been evaluated; stream
        emissions are never carried (stream queries are always live).
        """
        if instant < self._last_instant:
            raise SerenaError(
                f"continuous query {self.query.name!r}: evaluation instants "
                f"must be non-decreasing (got {instant} after "
                f"{self._last_instant})"
            )
        if instant == self._last_instant and self._last_result is not None:
            return self._last_result
        if self._last_result is None:
            return self.evaluate_at(instant)  # nothing to carry yet
        result = QueryResult(self._last_result.relation, _NO_ACTIONS, instant)
        self._last_instant = instant
        self._last_result = result
        self._carried = True
        if self._history is not None:
            self._history.append(result)
        for listener in list(self._listeners):
            listener(result)
        return result

    def run(self, instants: range) -> list[QueryResult]:
        """Evaluate at every instant of ``instants``; returns all results."""
        return [self.evaluate_at(instant) for instant in instants]

    def __repr__(self) -> str:
        return (
            f"ContinuousQuery({self.query.name or self.query.render()}, "
            f"last instant {self._last_instant})"
        )
