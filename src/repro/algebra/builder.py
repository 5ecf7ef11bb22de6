"""Fluent plan builder for the Serena algebra.

The builder mirrors the paper's algebra in method form, so query Q1 of
Table 4 reads almost like its algebraic expression::

    q1 = (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .query("Q1")
    )

Each method derives the output schema immediately, so schema errors
surface at the line that causes them.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.formula import Formula
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate, AggregateSpec
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.setops import Difference, Intersection, Union
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming, StreamType
from repro.algebra.operators.window import Window
from repro.algebra.query import Query
from repro.model.environment import PervasiveEnvironment

__all__ = ["PlanBuilder", "scan"]


class PlanBuilder:
    """Wraps an operator node and builds on top of it."""

    __slots__ = ("node",)

    def __init__(self, node: Operator):
        self.node = node

    # -- relational operators ------------------------------------------------

    def project(self, *names: str) -> "PlanBuilder":
        """``π_names`` (Table 3a)."""
        return PlanBuilder(Projection(self.node, names))

    def select(self, formula: Formula) -> "PlanBuilder":
        """``σ_formula`` (Table 3b)."""
        return PlanBuilder(Selection(self.node, formula))

    def rename(self, old: str, new: str) -> "PlanBuilder":
        """``ρ_{old→new}`` (Table 3c)."""
        return PlanBuilder(Renaming(self.node, old, new))

    def join(self, other: "PlanBuilder | Operator") -> "PlanBuilder":
        """Natural join (Table 3d)."""
        return PlanBuilder(NaturalJoin(self.node, _node_of(other)))

    # -- set operators ----------------------------------------------------------

    def union(self, other: "PlanBuilder | Operator") -> "PlanBuilder":
        return PlanBuilder(Union(self.node, _node_of(other)))

    def intersect(self, other: "PlanBuilder | Operator") -> "PlanBuilder":
        return PlanBuilder(Intersection(self.node, _node_of(other)))

    def difference(self, other: "PlanBuilder | Operator") -> "PlanBuilder":
        return PlanBuilder(Difference(self.node, _node_of(other)))

    # -- realization operators ------------------------------------------------

    def assign(self, attribute: str, value: object) -> "PlanBuilder":
        """``α_{attribute := constant}`` (Table 3e)."""
        return PlanBuilder(Assignment(self.node, attribute, value, False))

    def assign_from(self, attribute: str, source: str) -> "PlanBuilder":
        """``α_{attribute := other real attribute}`` (Table 3e)."""
        return PlanBuilder(Assignment(self.node, attribute, source, True))

    def invoke(
        self,
        prototype_name: str,
        service_attribute: str | None = None,
        delay: int = 0,
    ) -> "PlanBuilder":
        """``β_bp`` (Table 3f); the binding pattern is looked up in the
        operand schema by prototype name (and service attribute if the
        prototype is bound more than once).  ``delay > 0`` makes the
        invocation asynchronous under continuous queries (§5.1)."""
        bp = self.node.schema.binding_pattern(prototype_name, service_attribute)
        return PlanBuilder(Invocation(self.node, bp, delay))

    def invoke_stream(
        self,
        prototype_name: str,
        service_attribute: str | None = None,
        timestamp: str | None = None,
    ) -> "PlanBuilder":
        """``β∞_bp`` — a *streaming binding pattern* (paper §7, future
        work): invoke the (passive) pattern at every instant, producing an
        infinite XD-Relation of readings.  ``timestamp`` names a virtual
        TIMESTAMP attribute realized with the emission instant."""
        bp = self.node.schema.binding_pattern(prototype_name, service_attribute)
        return PlanBuilder(StreamingInvocation(self.node, bp, timestamp))

    # -- continuous operators ------------------------------------------------

    def window(self, period: int) -> "PlanBuilder":
        """``W[period]`` (Section 4.2)."""
        return PlanBuilder(Window(self.node, period))

    def stream(self, kind: StreamType | str = StreamType.INSERTION) -> "PlanBuilder":
        """``S[type]`` (Section 4.2)."""
        return PlanBuilder(Streaming(self.node, kind))

    # -- extensions ------------------------------------------------------------

    def aggregate(
        self,
        group_by: Sequence[str],
        *aggregates: AggregateSpec | tuple,
    ) -> "PlanBuilder":
        """Grouping/aggregation; each aggregate is an
        :class:`AggregateSpec` or a ``(function, attribute, result_name)``
        tuple."""
        specs = [
            a if isinstance(a, AggregateSpec) else AggregateSpec(*a)
            for a in aggregates
        ]
        return PlanBuilder(Aggregate(self.node, group_by, specs))

    # -- finishing ---------------------------------------------------------------

    def query(self, name: str | None = None) -> Query:
        """Wrap the built plan into a :class:`Query`."""
        return Query(self.node, name)

    @property
    def schema(self):
        return self.node.schema

    def __repr__(self) -> str:
        return f"<PlanBuilder {self.node.render()}>"


def _node_of(other: "PlanBuilder | Operator") -> Operator:
    return other.node if isinstance(other, PlanBuilder) else other


def scan(environment: PervasiveEnvironment, name: str) -> PlanBuilder:
    """Start a plan from the environment relation called ``name``.

    Detects whether the relation is an infinite XD-Relation (a stream) to
    type the plan correctly.
    """
    schema = environment.schema(name).with_name(name)
    return PlanBuilder(Scan(name, schema, environment.is_stream(name)))
