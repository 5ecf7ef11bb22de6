"""A cost model for service-oriented queries.

The paper lists "a formal definition of cost models dedicated to pervasive
environments" as future work (Section 7); this module provides a simple,
explicit one so the optimizer and the ablation benchmarks have an objective
function:

* every operator pays a per-tuple processing cost;
* the invocation operator additionally pays a per-invocation *service
  cost*, typically orders of magnitude larger than tuple processing (a
  remote invocation crosses the network) and configurable per prototype;
* cardinalities flow bottom-up from environment statistics, with textbook
  selectivity defaults where the model has no information.

The estimates are deliberately coarse — their job is to rank plans, and
for service-oriented queries the ranking is dominated by the number of
invocations, which the model tracks exactly per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import BaseRelation, Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.setops import Difference, Intersection, Union
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming
from repro.algebra.operators.window import Window
from repro.algebra.query import Query
from repro.model.environment import PervasiveEnvironment

__all__ = ["CostModel", "PlanCost"]

#: Default selectivity of a selection formula when nothing is known.
SELECTION_SELECTIVITY = 0.5
#: Default fraction of the Cartesian product surviving a natural join key.
JOIN_SELECTIVITY = 0.1
#: Default service cost (per invocation), in tuple-processing units.
DEFAULT_SERVICE_COST = 100.0
#: Default fraction of a base relation changing per instant, used by the
#: steady-state tick-cost model when the caller has no churn estimate.
DEFAULT_CHURN = 0.01
#: Risk premium on invocations of a prototype with *no* registered
#: substitution rule: a failure there has no failover, so the expected
#: cost carries re-invocation retries, quarantine gaps and missed-result
#: recovery.  Prototypes the substitution registry covers are served
#: transparently through their failover table (PR 9), so they pay none.
UNSUBSTITUTABLE_RISK_PREMIUM = 1.25


@dataclass(frozen=True)
class PlanCost:
    """Estimated cost of a plan: total units, plus the two components the
    ablation benchmarks report."""

    total: float
    invocations: float
    tuples_processed: float


@dataclass
class CostModel:
    """Cardinality and cost estimation against an environment.

    Parameters
    ----------
    environment:
        Supplies base-relation cardinalities (at ``instant``).
    service_costs:
        Per-prototype invocation cost override (prototype name → units).
    instant:
        The instant at which base cardinalities are sampled.
    statistics:
        Optional :class:`~repro.algebra.statistics.EnvironmentStatistics`
        snapshot; when present, selection selectivities and join factors
        are derived from actual distinct counts instead of the textbook
        defaults.  Build one with
        :func:`repro.algebra.statistics.collect_statistics`.
    substitutable:
        Prototype names covered by at least one substitution rule
        (``registry.substitutions.prototype_names``).  When set,
        invocations of prototypes *outside* it pay
        :data:`UNSUBSTITUTABLE_RISK_PREMIUM` — so on an otherwise-tied
        plan choice the optimizer prefers the provider a spare can
        absorb.  ``None`` (the default) disables the premium entirely.
    """

    environment: PervasiveEnvironment
    service_costs: dict[str, float] = field(default_factory=dict)
    instant: int = 0
    statistics: object | None = None  # EnvironmentStatistics, duck-typed
    substitutable: frozenset[str] | None = None

    # -- cardinality estimation ------------------------------------------------

    def cardinality(self, node: Operator) -> float:
        if isinstance(node, Scan):
            try:
                return float(
                    len(self.environment.instantaneous(node.name, self.instant))
                )
            except Exception:
                return 100.0  # unknown relation: textbook default
        if isinstance(node, BaseRelation):
            return float(len(node.relation))
        if isinstance(node, Selection):
            selectivity = SELECTION_SELECTIVITY
            if self.statistics is not None:
                selectivity = self.statistics.selectivity(node.formula)
            return selectivity * self.cardinality(node.children[0])
        if isinstance(node, (Projection, Renaming, Assignment, Window, Streaming)):
            return self.cardinality(node.children[0])
        if isinstance(node, Invocation):
            # Invocations return 0..n tuples; 1 per input is the typical
            # case (Section 2.1: input "generally with only one tuple",
            # output 0, 1 or several).
            return self.cardinality(node.children[0])
        if isinstance(node, NaturalJoin):
            left, right = node.children
            cl, cr = self.cardinality(left), self.cardinality(right)
            if not node.predicate_names:
                return cl * cr  # degenerates to a Cartesian product
            factor = JOIN_SELECTIVITY
            if self.statistics is not None:
                # System-R: 1 / max(distinct) per equi-join key.
                factor = 1.0
                for key in node.predicate_names:
                    distinct = self.statistics.distinct_anywhere(key)
                    factor *= 1.0 / distinct if distinct else JOIN_SELECTIVITY
            return factor * cl * cr
        if isinstance(node, Union):
            return sum(self.cardinality(c) for c in node.children)
        if isinstance(node, Intersection):
            return min(self.cardinality(c) for c in node.children)
        if isinstance(node, Difference):
            return self.cardinality(node.children[0])
        if isinstance(node, Aggregate):
            child_card = self.cardinality(node.children[0])
            return max(1.0, SELECTION_SELECTIVITY * child_card)
        if isinstance(node, StreamingInvocation):
            # Like β: one output tuple per operand tuple per instant.
            return self.cardinality(node.children[0])
        return 100.0

    def delta_cardinality(
        self, node: Operator, churn: float = DEFAULT_CHURN
    ) -> float:
        """Estimated per-tick *delta* size under the shared engine.

        ``churn`` is the fraction of every base relation changing per
        instant; deltas then flow bottom-up the way the physical executors
        (:mod:`repro.exec.executors`) propagate them.  The β∞ operator is
        the deliberate exception: a streaming invocation re-emits for
        every operand tuple at every instant, so its delta is its full
        cardinality regardless of churn.
        """
        if isinstance(node, (Scan, BaseRelation)):
            return churn * self.cardinality(node)
        if isinstance(node, Selection):
            selectivity = SELECTION_SELECTIVITY
            if self.statistics is not None:
                selectivity = self.statistics.selectivity(node.formula)
            return selectivity * self.delta_cardinality(node.children[0], churn)
        if isinstance(node, (Projection, Renaming, Assignment, Streaming)):
            return self.delta_cardinality(node.children[0], churn)
        if isinstance(node, Window):
            # Arrivals at this instant plus the bucket expiring: ~2 deltas.
            return 2.0 * self.delta_cardinality(node.children[0], churn)
        if isinstance(node, Invocation):
            return self.delta_cardinality(node.children[0], churn)
        if isinstance(node, StreamingInvocation):
            return self.cardinality(node.children[0])
        if isinstance(node, NaturalJoin):
            left, right = node.children
            dl = self.delta_cardinality(left, churn)
            dr = self.delta_cardinality(right, churn)
            cl, cr = self.cardinality(left), self.cardinality(right)
            if not node.predicate_names:
                return dl * cr + dr * cl
            factor = JOIN_SELECTIVITY
            if self.statistics is not None:
                factor = 1.0
                for key in node.predicate_names:
                    distinct = self.statistics.distinct_anywhere(key)
                    factor *= 1.0 / distinct if distinct else JOIN_SELECTIVITY
            return factor * (dl * cr + dr * cl)
        if isinstance(node, (Union, Intersection, Difference)):
            return sum(self.delta_cardinality(c, churn) for c in node.children)
        if isinstance(node, Aggregate):
            # One recomputed group row per affected member, at most.
            return min(
                self.delta_cardinality(node.children[0], churn),
                self.cardinality(node),
            )
        # Unknown operator: the engine falls back to naive re-evaluation
        # of the subtree, so the whole result is touched each tick.
        return self.cardinality(node)

    def service_cost(self, prototype_name: str) -> float:
        """Per-invocation cost of one call to ``prototype_name``,
        including the risk premium when the prototype has no registered
        substitute (see ``substitutable``)."""
        per_call = self.service_costs.get(prototype_name, DEFAULT_SERVICE_COST)
        if self.substitutable is not None and prototype_name not in self.substitutable:
            per_call *= UNSUBSTITUTABLE_RISK_PREMIUM
        return per_call

    def invocation_cost(self, node: Invocation) -> float:
        """Expected invocation cost of one β node: one call per input tuple."""
        per_call = self.service_cost(node.binding_pattern.prototype.name)
        return per_call * self.cardinality(node.children[0])

    # -- plan cost -------------------------------------------------------------

    def cost(self, plan: Operator | Query) -> PlanCost:
        """Total estimated cost of the plan (sum over all nodes)."""
        root = plan.root if isinstance(plan, Query) else plan
        invocations = 0.0
        tuples = 0.0
        for node in root.walk():
            tuples += self.cardinality(node)
            if isinstance(node, Invocation):
                invocations += self.invocation_cost(node)
            elif isinstance(node, StreamingInvocation):
                per_call = self.service_cost(node.binding_pattern.prototype.name)
                invocations += per_call * self.cardinality(node.children[0])
        return PlanCost(
            total=tuples + invocations,
            invocations=invocations,
            tuples_processed=tuples,
        )

    def tick_cost(
        self,
        plan: Operator | Query,
        engine: str = "shared",
        churn: float = DEFAULT_CHURN,
    ) -> PlanCost:
        """Estimated *steady-state per-tick* cost of a registered
        continuous query.

        Under ``engine="naive"`` every operator touches its full result
        each tick.  Under ``engine="shared"`` natively-lowered
        operators (see :func:`repro.exec.lowering.supported_operator`)
        touch only their deltas; an operator without a native executor
        makes its whole subtree fall back to naive evaluation.  In both
        engines the invocation operator only invokes for newly inserted
        tuples (its per-tuple cache), so service cost scales with deltas
        either way — what the physical engine buys is the tuple
        processing, which dominates invocation-free plans.  Any other
        engine name raises :class:`~repro.errors.SerenaError`.
        """
        # The physical layer builds on the algebra; import here so the
        # algebra package stays importable on its own.
        from repro.exec.lowering import check_engine, supported_operator

        check_engine(engine)
        root = plan.root if isinstance(plan, Query) else plan
        invocations = 0.0
        tuples = 0.0

        def visit(node: Operator, lowered: bool) -> None:
            nonlocal invocations, tuples
            lowered = lowered and supported_operator(node)
            if lowered:
                tuples += self.delta_cardinality(node, churn)
            else:
                tuples += self.cardinality(node)
            if isinstance(node, Invocation):
                per_call = self.service_cost(node.binding_pattern.prototype.name)
                invocations += per_call * self.delta_cardinality(
                    node.children[0], churn
                )
            elif isinstance(node, StreamingInvocation):
                per_call = self.service_cost(node.binding_pattern.prototype.name)
                invocations += per_call * self.cardinality(node.children[0])
            for child in node.children:
                visit(child, lowered)

        visit(root, engine == "shared")
        return PlanCost(
            total=tuples + invocations,
            invocations=invocations,
            tuples_processed=tuples,
        )
