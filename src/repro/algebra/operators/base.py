"""Operator framework for the Serena algebra.

Every operator of Table 3 (plus the continuous operators of Section 4.2 and
the extension operators) is a node in a logical plan tree.  A node:

* derives its output :class:`ExtendedRelationSchema` at construction time —
  this is where the schema rows of Table 3 (including binding-pattern
  propagation) are enforced, so ill-typed plans fail before evaluation;
* evaluates to an :class:`XRelation` at a given instant via
  :meth:`Operator.evaluate`;
* reports per-instant *deltas* (:meth:`inserted` / :meth:`deleted`) for the
  continuous extension: by default deltas are computed by diffing the
  instantaneous results of consecutive instants, while leaves over journaled
  XD-Relations report exact deltas.  (The physical engine lowers a window
  over a stream scan to one leaf that reads the journal directly; see
  :mod:`repro.exec.lowering`.)

Nodes are immutable once built; rewriting (Section 3.3) produces new trees
via :meth:`with_children`.
"""

from __future__ import annotations

import abc
import itertools
from typing import Iterator, Sequence

from repro.algebra.context import EvaluationContext
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["Operator"]

_uid_counter = itertools.count(1)


class Operator(abc.ABC):
    """A node of a Serena algebra plan."""

    __slots__ = ("_children", "_schema", "_uid")

    def __init__(self, children: Sequence["Operator"]):
        self._children = tuple(children)
        self._uid = next(_uid_counter)
        self._schema = self._derive_schema()

    # -- construction-time schema derivation -----------------------------------

    @abc.abstractmethod
    def _derive_schema(self) -> ExtendedRelationSchema:
        """Compute the output schema (the "Output" row of Table 3)."""

    @property
    def schema(self) -> ExtendedRelationSchema:
        """The extended relation schema of this operator's result."""
        return self._schema

    @property
    def children(self) -> tuple["Operator", ...]:
        return self._children

    @property
    def uid(self) -> int:
        """Stable identifier used by per-node evaluation state."""
        return self._uid

    @abc.abstractmethod
    def with_children(self, children: Sequence["Operator"]) -> "Operator":
        """A copy of this node over other children (used by rewriting)."""

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, ctx: EvaluationContext) -> XRelation:
        """The instantaneous result at ``ctx.instant`` (memoized per instant).

        Memoization matters for two reasons: a node may be shared between
        plan branches, and the delta methods below need the result of the
        current and previous instants without re-triggering invocations.
        """
        state = ctx.state(self)
        if state.get("eval_instant") == ctx.instant and "eval_result" in state:
            return state["eval_result"]
        result = self._compute(ctx)
        # Shift the previous instantaneous result for delta computation.
        if state.get("eval_instant") != ctx.instant:
            state["prev_result"] = state.get("eval_result")
        state["eval_instant"] = ctx.instant
        state["eval_result"] = result
        return result

    @abc.abstractmethod
    def _compute(self, ctx: EvaluationContext) -> XRelation:
        """The "Tuples" row of Table 3 for this operator."""

    # -- deltas for the continuous extension (Section 4) ---------------------------

    def inserted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        """Tuples inserted at ``ctx.instant`` w.r.t. the previous instant."""
        state = ctx.state(self)
        current = self.evaluate(ctx).tuples
        previous = state.get("prev_result")
        if previous is None:
            return current
        return current - previous.tuples

    def deleted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        """Tuples deleted at ``ctx.instant`` w.r.t. the previous instant."""
        state = ctx.state(self)
        current = self.evaluate(ctx).tuples
        previous = state.get("prev_result")
        if previous is None:
            return frozenset()
        return previous.tuples - current

    # -- stream typing ---------------------------------------------------------------

    @property
    def is_stream(self) -> bool:
        """True iff this node produces an *infinite* XD-Relation (§4.1).

        A leaf over a stream is infinite; the window operator makes its
        input finite; the streaming operator makes its input infinite; all
        other operators propagate the property (they are only well-defined
        on finite inputs, which plan validation enforces — see
        :class:`repro.algebra.query.Query`).
        """
        return any(child.is_stream for child in self._children)

    # -- introspection -----------------------------------------------------------------

    @abc.abstractmethod
    def render(self) -> str:
        """Serena Algebra Language text for this subtree."""

    def symbol(self) -> str:
        """Short mathematical label (π, σ, β...) for plan pretty-printing."""
        return type(self).__name__

    def walk(self) -> Iterator["Operator"]:
        """All nodes of the subtree, depth-first, self first."""
        yield self
        for child in self._children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"

    # Structural equality: same operator class, same parameters (compared
    # via ``_signature``), recursively equal children.  ``uid`` is excluded.

    def _signature(self) -> tuple:
        """Operator-specific parameters for structural equality."""
        return ()

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, Operator)
        return (
            self._signature() == other._signature()
            and self._children == other._children
        )

    def __hash__(self) -> int:
        return hash((type(self), self._signature(), self._children))
