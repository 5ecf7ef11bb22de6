"""The window operator W[period] (Section 4.2).

``W[period]`` computes a finite XD-Relation from an infinite one: at every
instant τ, its instantaneous relation is the set of tuples *inserted*
during the last ``period`` instants, i.e. at instants in
``(τ − period, τ]``.  With ``period = 1`` (as in queries Q3/Q4 of
Table 4), only the tuples inserted at the current instant are visible —
they are not kept for following instants.

The operator does not modify the schema apart from the finite/infinite
status, so it transparently handles virtual attributes and binding
patterns.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.errors import InvalidOperatorError
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["Window"]


class Window(Operator):
    """``W[period](r)`` over an infinite XD-Relation.

    When the operand is a scan of a journaled XD-Relation, window contents
    are read directly from the journal — exact and stateless, so one-shot
    queries over base streams see the full window.  For derived streams
    (outputs of the streaming operator), a buffer of per-instant insertions
    is kept in the evaluation context: under a continuous query it persists
    across instants; in one-shot evaluation only the current instant's
    insertions are visible.
    """

    __slots__ = ("period",)

    def __init__(self, child: Operator, period: int):
        if not child.is_stream:
            raise InvalidOperatorError(
                "window: operand must be an infinite XD-Relation (a stream)"
            )
        if not isinstance(period, int) or period < 1:
            raise InvalidOperatorError(
                f"window: period must be a positive integer, got {period!r}"
            )
        self.period = period
        super().__init__((child,))

    def _derive_schema(self) -> ExtendedRelationSchema:
        (child,) = self.children
        return child.schema

    @property
    def is_stream(self) -> bool:
        return False

    def with_children(self, children: Sequence[Operator]) -> "Window":
        (child,) = children
        return Window(child, self.period)

    def _compute(self, ctx: EvaluationContext) -> XRelation:
        from repro.algebra.operators.scan import Scan

        (child,) = self.children
        if isinstance(child, Scan):
            stored = ctx.environment.relation(child.name)
            if not isinstance(stored, XRelation):  # an XD-Relation's journal
                return XRelation(
                    self.schema,
                    stored.window(ctx.instant, self.period),
                    validated=True,
                )
        state = ctx.state(self)
        buffer: dict[int, frozenset[tuple]] = state.setdefault("buffer", {})
        if ctx.instant not in buffer:
            buffer[ctx.instant] = child.inserted(ctx)
        horizon = ctx.instant - self.period
        for instant in [i for i in buffer if i <= horizon or i > ctx.instant]:
            del buffer[instant]
        tuples: set[tuple] = set()
        for inserted in buffer.values():
            tuples |= inserted
        return XRelation(self.schema, tuples, validated=True)

    def render(self) -> str:
        (child,) = self.children
        return f"window[{self.period}]({child.render()})"

    def symbol(self) -> str:
        return f"W[{self.period}]"

    def _signature(self) -> tuple:
        return (self.period,)
