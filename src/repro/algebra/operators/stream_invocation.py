"""Streaming binding patterns (Section 7, future work — implemented).

The paper's conclusion announces "a new notion of *streaming binding
pattern* to homogeneously integrate in our framework streams provided by
services".  This module realizes that notion as an algebra operator,
``StreamingInvocation`` (written ``β∞`` / ``bindstream`` in SAL):

* like the invocation operator β, it takes a finite operand whose schema
  carries a binding pattern with all-real inputs;
* unlike β, its output is an **infinite XD-Relation**: at *every* instant
  τ it invokes the pattern's prototype on each operand tuple and emits the
  combined tuples — the service is treated as a data *source* that
  produces a reading per instant, not as a one-shot function.

``W[1](β∞_bp(sensors))`` is then exactly the paper's ``temperatures``
stream: the per-instant localized readings of all currently discovered
sensors — built declaratively, with no out-of-band feeder process, and
automatically following the discovery-maintained operand relation.

Only *passive* binding patterns may stream: an active pattern invoked at
every instant would multiply physical side effects unboundedly, so the
operator rejects active patterns at construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.errors import InvalidOperatorError, ServiceError
from repro.model.binding import BindingPattern
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["StreamingInvocation"]

class StreamingInvocation(Operator):
    """``β∞_bp(r)``: the stream of per-instant invocations of ``bp``.

    The instantaneous relation at τ is the set of operand tuples extended
    with the invocation outputs *at τ*; every emitted tuple counts as an
    insertion (the output is append-only, like any stream).  Emissions can
    optionally be timestamped: pass ``timestamp_attribute`` naming a
    virtual TIMESTAMP attribute of the operand schema, and each emitted
    tuple carries the emission instant — which keeps physically identical
    readings from collapsing in downstream windows.  A failed invocation
    contributes no reading at that instant, like a failed β call.
    """

    __slots__ = ("binding_pattern", "timestamp_attribute")

    def __init__(
        self,
        child: Operator,
        binding_pattern: BindingPattern,
        timestamp_attribute: str | None = None,
    ):
        if child.is_stream:
            raise InvalidOperatorError(
                "streaming invocation: operand must be finite"
            )
        schema = child.schema
        if binding_pattern not in schema.binding_patterns:
            raise InvalidOperatorError(
                f"streaming invocation: binding pattern {binding_pattern} is "
                "not in BP of the operand schema"
            )
        if binding_pattern.active:
            raise InvalidOperatorError(
                f"streaming invocation: {binding_pattern.prototype.name!r} is "
                "active; a streaming binding pattern would repeat its side "
                "effect at every instant — only passive patterns may stream"
            )
        not_real = binding_pattern.input_names - schema.real_names
        if not_real:
            raise InvalidOperatorError(
                f"streaming invocation of {binding_pattern.prototype.name!r}: "
                f"input attributes {sorted(not_real)} are still virtual"
            )
        if timestamp_attribute is not None:
            if timestamp_attribute not in schema:
                raise InvalidOperatorError(
                    f"streaming invocation: unknown timestamp attribute "
                    f"{timestamp_attribute!r}"
                )
            if not schema.is_virtual(timestamp_attribute):
                raise InvalidOperatorError(
                    f"streaming invocation: timestamp attribute "
                    f"{timestamp_attribute!r} must be virtual in the operand"
                )
            if timestamp_attribute in binding_pattern.output_names:
                raise InvalidOperatorError(
                    "streaming invocation: the timestamp attribute cannot be "
                    "an output of the binding pattern"
                )
        self.binding_pattern = binding_pattern
        self.timestamp_attribute = timestamp_attribute
        super().__init__((child,))

    def _derive_schema(self) -> ExtendedRelationSchema:
        (child,) = self.children
        realized = set(self.binding_pattern.output_names)
        if self.timestamp_attribute is not None:
            realized.add(self.timestamp_attribute)
        return child.schema.realize(realized)

    @property
    def is_stream(self) -> bool:
        return True

    def with_children(self, children: Sequence[Operator]) -> "StreamingInvocation":
        (child,) = children
        return StreamingInvocation(
            child, self.binding_pattern, self.timestamp_attribute
        )

    def _compute(self, ctx: EvaluationContext) -> XRelation:
        (child,) = self.children
        relation = child.evaluate(ctx)
        source = relation.schema
        bp = self.binding_pattern
        prototype = bp.prototype

        service_pos = source.real_position(bp.service_attribute)
        input_positions = [
            source.real_position(n) for n in prototype.input_schema.names
        ]

        output_names = prototype.output_schema.names
        output_index = {n: i for i, n in enumerate(output_names)}
        out_sources: list[tuple[str, int]] = []
        for attribute in self.schema.real_attributes:
            name = attribute.name
            if name in output_index:
                out_sources.append(("invocation", output_index[name]))
            elif name == self.timestamp_attribute:
                out_sources.append(("timestamp", 0))
            else:
                out_sources.append(("child", source.real_position(name)))

        out = []
        for t in relation:
            reference = t[service_pos]
            inputs = tuple(t[p] for p in input_positions)
            try:
                results = ctx.environment.registry.invoke(
                    prototype, reference, inputs, ctx.instant
                )
            except ServiceError:
                continue
            for output_tuple in results:
                row = []
                for kind, position in out_sources:
                    if kind == "child":
                        row.append(t[position])
                    elif kind == "invocation":
                        row.append(output_tuple[position])
                    else:
                        row.append(ctx.instant)
                out.append(tuple(row))
        return XRelation(self.schema, out, validated=True)

    def inserted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        """Every emission at this instant is an insertion (append-only)."""
        return self.evaluate(ctx).tuples

    def deleted(self, ctx: EvaluationContext) -> frozenset[tuple]:
        return frozenset()

    def render(self) -> str:
        (child,) = self.children
        bp = self.binding_pattern
        timestamp = (
            f", {self.timestamp_attribute}" if self.timestamp_attribute else ""
        )
        return (
            f"bindstream[{bp.prototype.name}, {bp.service_attribute}{timestamp}]"
            f"({child.render()})"
        )

    def symbol(self) -> str:
        bp = self.binding_pattern
        return f"β∞[{bp.prototype.name}[{bp.service_attribute}]]"

    def _signature(self) -> tuple:
        return (self.binding_pattern, self.timestamp_attribute)
