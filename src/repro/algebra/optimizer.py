"""Logical optimizer for Serena queries.

The paper observes that once the algebra has formal semantics, "logical
query optimization is now possible in our setting" (Section 3.2) and lists
cost-based optimization as future work (Section 7).  This module provides
both layers:

* :func:`optimize_heuristic` — the safe pushdown strategy of Section 3.3:
  merge and push selections and projections down, past passive invocations
  and into join operands, so that expensive service invocations run on as
  few tuples as possible.  Active invocations are never moved.

* :class:`Optimizer` — a small cost-based search: starting from the input
  plan, it explores the space reachable through the full (bidirectional)
  rule set, scores each distinct plan with a :class:`CostModel`, and
  returns the cheapest.  The search is breadth-first with a plan budget;
  for the plan sizes of pervasive queries (a handful of operators) it
  explores the space exhaustively.

Every transformation preserves Definition 9 equivalence by construction
(see :mod:`repro.algebra.rewriting`), which the property-based tests check
empirically on randomized environments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.cost import CostModel, PlanCost
from repro.algebra.operators.base import Operator
from repro.algebra.query import Query
from repro.algebra.rewriting import (
    DEFAULT_RULES,
    PUSHDOWN_RULES,
    RewriteTrace,
    rewrite_fixpoint,
)

__all__ = ["optimize_heuristic", "Optimizer", "OptimizationResult"]


def optimize_heuristic(query: Query, trace: RewriteTrace | None = None) -> Query:
    """Apply the pushdown rule set to a fixed point (Section 3.3 strategy)."""
    rewritten = rewrite_fixpoint(query, PUSHDOWN_RULES, trace=trace)
    assert isinstance(rewritten, Query)
    return rewritten


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a cost-based optimization."""

    query: Query
    cost: PlanCost
    original_cost: PlanCost
    plans_explored: int

    @property
    def improvement(self) -> float:
        """Cost ratio original/optimized (≥ 1 when optimization helped)."""
        if self.cost.total == 0:
            return 1.0
        return self.original_cost.total / self.cost.total


class Optimizer:
    """Cost-based plan search over the rewrite-rule space, scored by the
    one-shot :meth:`~repro.algebra.cost.CostModel.cost`.  It serves the
    shell's ``.optimize`` and the X2 optimizer ablation (DESIGN.md §3);
    registration lowers plans as written, and the shared-plan registry's
    Table 5 normal form is what makes equivalent subplans share executors.

    Parameters
    ----------
    cost_model:
        Scores candidate plans.
    plan_budget:
        Maximum number of distinct plans to explore.
    """

    def __init__(self, cost_model: CostModel, plan_budget: int = 500):
        self.cost_model = cost_model
        self.plan_budget = plan_budget

    def optimize(self, query: Query) -> OptimizationResult:
        """Explore equivalent plans breadth-first; return the cheapest.

        The input plan is always a candidate, so the result is never worse
        than the input under the cost model.
        """
        original_cost = self.cost_model.cost(query)
        seen: dict[Operator, PlanCost] = {}
        frontier = [query.root]
        seen[query.root] = original_cost
        explored = 1
        while frontier and explored < self.plan_budget:
            node = frontier.pop(0)
            for neighbor in self._neighbors(node):
                if neighbor in seen:
                    continue
                seen[neighbor] = self.cost_model.cost(neighbor)
                frontier.append(neighbor)
                explored += 1
                if explored >= self.plan_budget:
                    break
        best_root = min(seen, key=lambda plan: seen[plan].total)
        return OptimizationResult(
            query=Query(best_root, query.name),
            cost=seen[best_root],
            original_cost=original_cost,
            plans_explored=explored,
        )

    def _neighbors(self, root: Operator) -> list[Operator]:
        """All plans one rule application away (any rule, any node)."""
        neighbors: list[Operator] = []
        for rule in DEFAULT_RULES:
            rewritten = _apply_everywhere(root, rule.transform)
            neighbors.extend(rewritten)
        return neighbors


def _apply_everywhere(root: Operator, transform) -> list[Operator]:
    """Every tree obtained by applying ``transform`` at exactly one node."""
    results: list[Operator] = []
    replacement = transform(root)
    if replacement is not None:
        results.append(replacement)
    for position, child in enumerate(root.children):
        for rewritten_child in _apply_everywhere(child, transform):
            children = list(root.children)
            children[position] = rewritten_child
            results.append(root.with_children(children))
    return results
