"""Queries over relational pervasive environments (Definition 7).

A query is a well-formed composition of Serena algebra operators whose
leaves are X-Relations.  :class:`Query` wraps a plan root and provides
one-shot evaluation (Section 3.2: the whole query is evaluated at one
discrete time instant, so all service invocations formally occur
simultaneously) returning both the resulting X-Relation and the collected
action set (Definition 8).

Continuous execution of queries (re-evaluation at every instant) is
provided by :class:`repro.continuous.continuous_query.ContinuousQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.actions import ActionSet
from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["Query", "QueryResult", "NodeProfile", "QueryProfile"]


@dataclass(frozen=True)
class NodeProfile:
    """Measured per-operator statistics from one profiled evaluation."""

    symbol: str
    depth: int
    output_tuples: int


@dataclass(frozen=True)
class QueryProfile:
    """EXPLAIN ANALYZE-style report: the plan annotated with the *actual*
    cardinality each operator produced, plus the invocation total."""

    result: "QueryResult"
    nodes: tuple[NodeProfile, ...]
    invocations: int

    def render(self) -> str:
        lines = []
        for node in self.nodes:
            pad = "  " * node.depth
            lines.append(f"{pad}{node.symbol}  [{node.output_tuples} tuples]")
        lines.append(f"service invocations: {self.invocations}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class QueryResult:
    """The outcome of a one-shot query evaluation.

    Attributes
    ----------
    relation:
        The resulting X-Relation.
    actions:
        The action set induced by the evaluation (Definition 8): the
        invocations of *active* binding patterns that were triggered.
    instant:
        The instant at which the query was evaluated.
    """

    relation: XRelation
    actions: ActionSet
    instant: int

    def __iter__(self):
        return iter(self.relation)

    def __len__(self) -> int:
        return len(self.relation)


class Query:
    """A Serena algebra expression, ready for evaluation."""

    __slots__ = ("root", "name")

    def __init__(self, root: Operator, name: str | None = None):
        self.root = root
        self.name = name

    @property
    def schema(self) -> ExtendedRelationSchema:
        """The extended relation schema of the query result."""
        return self.root.schema

    @property
    def is_stream(self) -> bool:
        """True iff the result is an infinite XD-Relation, like Q4 of
        Table 4 (its last operator is a streaming operator)."""
        return self.root.is_stream

    def evaluate(
        self, environment: PervasiveEnvironment, instant: int = 0
    ) -> QueryResult:
        """One-shot evaluation at ``instant``.

        Uses a fresh evaluation context, so every invocation operator
        invokes for every operand tuple (the pure Table 3f semantics).
        """
        ctx = EvaluationContext(environment, instant)
        relation = self.root.evaluate(ctx)
        return QueryResult(relation, ctx.action_set, instant)

    def evaluate_in(self, ctx: EvaluationContext) -> QueryResult:
        """Evaluation inside an existing context (used by the continuous
        engine to persist per-node state across instants)."""
        relation = self.root.evaluate(ctx)
        return QueryResult(relation, ctx.action_set, ctx.instant)

    def profile(
        self, environment: PervasiveEnvironment, instant: int = 0
    ) -> QueryProfile:
        """One-shot evaluation with per-operator runtime statistics.

        Evaluates the query once (a fresh context, like :meth:`evaluate`),
        then reads each node's memoized instantaneous result to report the
        *actual* output cardinalities — the tool for spotting where a plan
        explodes or where invocations multiply.
        """
        registry = environment.registry
        before = registry.invocation_count
        ctx = EvaluationContext(environment, instant)
        relation = self.root.evaluate(ctx)
        result = QueryResult(relation, ctx.action_set, instant)
        nodes: list[NodeProfile] = []

        def visit(node: Operator, depth: int) -> None:
            nodes.append(
                NodeProfile(node.symbol(), depth, len(node.evaluate(ctx)))
            )
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return QueryProfile(
            result, tuple(nodes), registry.invocation_count - before
        )

    def render(self) -> str:
        """The query in the Serena Algebra Language."""
        return self.root.render()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.root == other.root

    def __hash__(self) -> int:
        return hash(self.root)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Query{label} {self.render()}>"
