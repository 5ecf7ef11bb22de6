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
    """

    environment: PervasiveEnvironment
    service_costs: dict[str, float] = field(default_factory=dict)
    instant: int = 0
    statistics: object | None = None  # EnvironmentStatistics, duck-typed

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

    def service_cost(self, prototype_name: str) -> float:
        """Per-invocation cost of one call to ``prototype_name``."""
        return self.service_costs.get(prototype_name, DEFAULT_SERVICE_COST)

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
