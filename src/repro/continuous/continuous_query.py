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
:attr:`ContinuousQuery.emitted` accumulates the output stream.  The query
keeps only the last per-tick result.

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

from typing import Any

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
        engine: str = "shared",
        shared: SharedPlanRegistry | None = None,
        observe: Observability | None = None,
    ):
        check_engine(engine)
        self.query = query
        #: Whether each result is a stream emission; the plan never
        #: changes, so it is decided once and not re-walked per instant.
        self._stream = query.is_stream
        self.environment = environment
        self.engine = engine
        #: The physical engine (None on the naive engine), recording into
        #: ``observe`` or else its registry's facade.  Without a
        #: caller-supplied registry the query gets a private one: correct,
        #: just with nothing to share against.
        self._engine: SharedEngine | None = (
            SharedEngine(query, environment, shared, observe=observe)
            if engine == "shared"
            else None
        )
        self._states: dict[int, dict[str, Any]] = {}
        self._last_instant = -1
        self._last_result: QueryResult | None = None
        self._carried = False
        self._all_actions: list[Action] = []
        self._emitted: list[tuple[int, tuple]] = []

    # -- observation -------------------------------------------------------------

    @property
    def last_result(self) -> QueryResult | None:
        return self._last_result

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

    # -- evaluation ---------------------------------------------------------------

    def evaluate_at(self, instant: int) -> QueryResult:
        """Evaluate the query at ``instant`` (must be non-decreasing).

        Re-evaluating the current instant is idempotent: the cached result
        is returned and no bookkeeping (actions, emissions) happens
        twice.
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
        if self._stream:
            self._emitted.extend((instant, t) for t in result.relation)
        return result

    def carry_forward(self, instant: int) -> QueryResult:
        """Advance to ``instant`` without evaluating: reuse the previous
        result relation with an empty delta and no actions.

        Only sound when the caller (the tick scheduler) has established
        that none of the query's sources changed and its plan has no
        time-driven (live) executor — the evaluation would then provably
        reproduce the cached relation.  Stream emissions are never carried
        (stream queries are always live).
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
        return result

    def run(self, instants: range) -> list[QueryResult]:
        """Evaluate at every instant of ``instants``; returns all results."""
        return [self.evaluate_at(instant) for instant in instants]

    def __repr__(self) -> str:
        return (
            f"ContinuousQuery({self.query.name or self.query.render()}, "
            f"last instant {self._last_instant})"
        )
