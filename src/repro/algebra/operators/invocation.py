"""The invocation operator β (Table 3f).

The invocation operator is the realization operator for the output
attributes of a binding pattern.  For each tuple of the operand it invokes
the pattern's prototype on the service referenced by the tuple's service
attribute, with input parameters taken from the tuple; the tuple is
duplicated once per output tuple of the invocation (0, 1 or several).

Preconditions (checked at plan construction):

* the binding pattern belongs to ``BP(R)`` of the operand schema;
* all input attributes of the pattern are *real* in the operand schema.

Continuous refinement (Section 4.2): under a persistent evaluation context
(a :class:`~repro.continuous.continuous_query.ContinuousQuery`), the
pattern is actually invoked only for newly inserted tuples — results for
already-seen tuples are served from a per-node cache.  One-shot evaluation
uses a fresh context, so every tuple triggers an invocation, matching the
pure Table 3f semantics.

Active binding patterns additionally record an :class:`Action` per input
tuple (Definition 8) — including when the result comes from the cache, an
action happened when the invocation was first performed.

Asynchronous invocation (Section 5.1: "service invocations are handled
asynchronously by the invocation operator, relying on the core Environment
Resource Manager"): pass ``delay > 0`` and, under a *continuous* query, an
input tuple inserted at instant τ produces its output tuples at τ+delay —
modeling the round-trip to a remote service that takes ``delay`` instants.
One-shot evaluation is instantaneous by definition (Section 3.2), so the
delay only applies under a persistent continuous context.  Because the
instantaneous result at τ can only extend tuples *present* at τ, an
in-flight request whose operand tuple disappears (e.g. slides out of a
window) is dropped without ever invoking the service — windows must
out-live the modeled round-trip for responses to land.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.actions import Action
from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.errors import InvalidOperatorError, ServiceError
from repro.model.binding import BindingPattern
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["Invocation"]


class Invocation(Operator):
    """``β_bp(r)`` with ``bp ∈ BP(R)`` and real input attributes.

    Parameters
    ----------
    child:
        The operand plan.
    binding_pattern:
        The binding pattern to invoke; must be one of the operand schema's.
    delay:
        Asynchronous round-trip time in instants (0 = synchronous).  Only
        effective under a continuous evaluation context.
    """

    __slots__ = ("binding_pattern", "delay")

    def __init__(
        self,
        child: Operator,
        binding_pattern: BindingPattern,
        delay: int = 0,
    ):
        if child.is_stream:
            raise InvalidOperatorError(
                "invocation: operand must be finite (apply a window first)"
            )
        if not isinstance(delay, int) or delay < 0:
            raise InvalidOperatorError(
                f"invocation: delay must be a non-negative integer, got {delay!r}"
            )
        schema = child.schema
        if binding_pattern not in schema.binding_patterns:
            raise InvalidOperatorError(
                f"invocation: binding pattern {binding_pattern} is not in "
                f"BP of the operand schema"
            )
        not_real = binding_pattern.input_names - schema.real_names
        if not_real:
            raise InvalidOperatorError(
                f"invocation of {binding_pattern.prototype.name!r}: input "
                f"attributes {sorted(not_real)} are still virtual; realize "
                "them first (assignment or join)"
            )
        self.binding_pattern = binding_pattern
        self.delay = delay
        super().__init__((child,))

    def _derive_schema(self) -> ExtendedRelationSchema:
        (child,) = self.children
        return child.schema.realize(self.binding_pattern.output_names)

    def with_children(self, children: Sequence[Operator]) -> "Invocation":
        (child,) = children
        return Invocation(child, self.binding_pattern, self.delay)

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

        # Output layout: child's values plus invocation outputs, interleaved
        # at the realized attributes' schema positions.
        out_sources: list[tuple[str, int]] = []
        output_names = prototype.output_schema.names
        output_index = {n: i for i, n in enumerate(output_names)}
        for attribute in self.schema.real_attributes:
            name = attribute.name
            if name in output_index:
                out_sources.append(("invocation", output_index[name]))
            else:
                out_sources.append(("child", source.real_position(name)))

        state = ctx.state(self)
        cache: dict[tuple, list[tuple]] = state.setdefault("cache", {})
        # Asynchronous mode (continuous contexts only): tuple → instant at
        # which its invocation result becomes available.
        due: dict[tuple, int] = state.setdefault("due", {})
        asynchronous = self.delay > 0 and ctx.continuous
        # Rebind-instant invalidation (mirrors InvocationExec): cached
        # results of operand tuples whose service reference was rebound
        # since the last evaluation are dropped, so the re-computed result
        # flows through the new substitution route this very instant.
        subs = ctx.environment.registry.substitutions
        if subs.epoch != state.get("sub_epoch", 0):
            rebound = subs.rebound_since(
                prototype.name, state.get("sub_epoch", 0)
            )
            state["sub_epoch"] = subs.epoch
            if rebound:
                for stale in [t for t in cache if t[service_pos] in rebound]:
                    del cache[stale]
                for stale in [t for t in due if t[service_pos] in rebound]:
                    del due[stale]  # re-scheduled with the full delay
        seen_now: set[tuple] = set()

        out = []
        for t in relation:
            seen_now.add(t)
            results = cache.get(t)
            if results is None:
                if asynchronous:
                    ready_at = due.setdefault(t, ctx.instant + self.delay)
                    if ctx.instant < ready_at:
                        continue  # response still in flight
                reference = t[service_pos]
                input_tuple = tuple(t[p] for p in input_positions)
                try:
                    results = ctx.environment.registry.invoke(
                        prototype, reference, input_tuple, ctx.instant
                    )
                except ServiceError:
                    # No tuples at this instant; retried at the next one
                    # (an asynchronous request is re-issued in full).
                    due.pop(t, None)
                    continue
                cache[t] = results
                due.pop(t, None)
                if bp.active:
                    ctx.record_action(Action(bp, reference, input_tuple))
            for output_tuple in results:
                out.append(
                    tuple(
                        t[p] if kind == "child" else output_tuple[p]
                        for kind, p in out_sources
                    )
                )
        # Drop cache entries for tuples no longer present: if a tuple
        # reappears later it counts as newly inserted again (Section 4.2).
        for stale in [key for key in cache if key not in seen_now]:
            del cache[stale]
        for stale in [key for key in due if key not in seen_now]:
            del due[stale]
        return XRelation(self.schema, out, validated=True)

    def render(self) -> str:
        (child,) = self.children
        bp = self.binding_pattern
        delay = f", {self.delay}" if self.delay else ""
        return (
            f"invoke[{bp.prototype.name}, {bp.service_attribute}{delay}]"
            f"({child.render()})"
        )

    def symbol(self) -> str:
        bp = self.binding_pattern
        return f"β[{bp.prototype.name}[{bp.service_attribute}]]"

    def _signature(self) -> tuple:
        return (self.binding_pattern, self.delay)
