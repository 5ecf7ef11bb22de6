"""The leaf operator: a scan of a named relation of the environment.

A :class:`Scan` references an X-Relation (or XD-Relation) of the
environment by name and resolves it at evaluation time — this is what makes
plans robust to dynamic environments: the relation contents (including
discovery-maintained service tables) are read at the evaluation instant.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.errors import InvalidOperatorError
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["Scan"]


class Scan(Operator):
    """Leaf node reading relation ``name`` from the environment.

    Parameters
    ----------
    name:
        The relation's name in the environment.
    schema:
        The relation's extended schema (captured at plan-build time; the
        environment must still hold a relation with a compatible schema at
        evaluation time).
    stream:
        True iff the named relation is an infinite XD-Relation (Section 4.1).
    """

    __slots__ = ("name", "_declared_schema", "_stream")

    def __init__(self, name: str, schema: ExtendedRelationSchema, stream: bool = False):
        self.name = name
        self._declared_schema = schema
        self._stream = stream
        super().__init__(())

    def _derive_schema(self) -> ExtendedRelationSchema:
        return self._declared_schema

    def with_children(self, children: Sequence[Operator]) -> "Scan":
        if children:
            raise InvalidOperatorError("Scan is a leaf")
        return self

    @property
    def is_stream(self) -> bool:
        return self._stream

    def _compute(self, ctx: EvaluationContext) -> XRelation:
        relation = ctx.environment.instantaneous(self.name, ctx.instant)
        if not relation.schema.compatible(self.schema):
            raise InvalidOperatorError(
                f"relation {self.name!r} changed schema since the plan was built"
            )
        return relation

    def inserted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        """Exact insertions from the XD-Relation journal; a static
        X-Relation's come from the generic diff."""
        stored = ctx.environment.relation(self.name)
        if isinstance(stored, XRelation):
            return super().inserted(ctx)
        self.evaluate(ctx)  # keep the delta bookkeeping consistent
        return frozenset(stored.inserted_at(ctx.instant))

    def deleted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        stored = ctx.environment.relation(self.name)
        if isinstance(stored, XRelation):
            return super().deleted(ctx)
        self.evaluate(ctx)
        return frozenset(stored.deleted_at(ctx.instant))

    def render(self) -> str:
        return self.name

    def symbol(self) -> str:
        return f"scan({self.name})" + ("∞" if self._stream else "")

    def _signature(self) -> tuple:
        return (self.name, self._stream)
