"""Extension operators beyond the paper's core algebra.

The paper's motivating example computes "a mean temperature for a given
location" (Section 1.2) but leaves aggregation out of the formal algebra;
Section 7 lists further operator extensions as future work.  This module
provides a grouping/aggregation operator in the same style as Table 3:
explicit output-schema derivation, restriction to real attributes, binding
patterns dropped (the aggregate result is a new relation shape, so no
pattern can remain valid).
"""

from __future__ import annotations

import enum
import math
from typing import Collection, Sequence

from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.errors import InvalidOperatorError, VirtualAttributeError
from repro.model.attributes import Attribute
from repro.model.relation import XRelation
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["AggregateFunction", "AggregateSpec", "Aggregate"]


class AggregateFunction(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @classmethod
    def from_name(cls, name: str) -> "AggregateFunction":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidOperatorError(f"unknown aggregate {name!r}") from None


_NUMERIC = (DataType.INTEGER, DataType.REAL)


class AggregateSpec:
    """One aggregate column: ``function(attribute) AS result_name``.

    COUNT may omit the attribute (``count(*)``).
    """

    __slots__ = ("function", "attribute", "result_name")

    def __init__(
        self,
        function: AggregateFunction | str,
        attribute: str | None,
        result_name: str,
    ):
        if isinstance(function, str):
            function = AggregateFunction.from_name(function)
        if function is not AggregateFunction.COUNT and attribute is None:
            raise InvalidOperatorError(
                f"aggregate {function.value} requires an attribute"
            )
        self.function = function
        self.attribute = attribute
        self.result_name = result_name

    def result_dtype(self, schema: ExtendedRelationSchema) -> DataType:
        if self.function is AggregateFunction.COUNT:
            return DataType.INTEGER
        assert self.attribute is not None
        dtype = schema.dtype(self.attribute)
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            if dtype not in _NUMERIC:
                raise InvalidOperatorError(
                    f"aggregate {self.function.value} needs a numeric "
                    f"attribute, got {self.attribute!r} ({dtype.value})"
                )
            return DataType.REAL if self.function is AggregateFunction.AVG else dtype
        return dtype  # MIN / MAX preserve the attribute type

    def compute(self, values: Collection) -> object:
        """The aggregate of one group, as a function of the group *as a
        set*: whatever order an engine meets the members in, the result
        is the same value.

        ``count``, ``min`` and ``max`` are order-free by nature.  ``sum``
        is the **correctly rounded** sum of the members — ``math.fsum``
        over floats, which rounds once at the end (and so agrees across
        Python versions, where builtin ``sum`` changed its float
        algorithm in 3.12); a group of integers keeps its exact ``int``
        total.  ``avg`` is that sum divided by the member count.  Builtin
        ``sum`` would make the result depend on set iteration order, i.e.
        on ``PYTHONHASHSEED`` and on each engine's bookkeeping.

        ``values`` holds one entry per member tuple (duplicates included)
        and is non-empty; non-finite floats follow ``math.fsum`` (``inf``
        with ``-inf`` raises ``ValueError``)."""
        function = self.function
        if function is AggregateFunction.COUNT:
            return len(values)
        if function is AggregateFunction.MIN:
            return min(values)
        if function is AggregateFunction.MAX:
            return max(values)
        total = sum(values)
        if type(total) is not int:  # some member is a float
            total = math.fsum(values)
        if function is AggregateFunction.SUM:
            return total
        return total / len(values)

    def render(self) -> str:
        arg = self.attribute if self.attribute is not None else "*"
        return f"{self.function.value}({arg}) as {self.result_name}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateSpec):
            return NotImplemented
        return (
            self.function is other.function
            and self.attribute == other.attribute
            and self.result_name == other.result_name
        )

    def __hash__(self) -> int:
        return hash((self.function, self.attribute, self.result_name))


class Aggregate(Operator):
    """``γ_{G; aggs}(r)``: group by real attributes ``G``, compute aggregates.

    With an empty ``group_by`` the whole relation is one group; if the
    operand is empty, the result is empty (no global row for empty input —
    keeps the operator monotone-friendly for continuous evaluation).
    """

    __slots__ = ("group_by", "aggregates")

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        if child.is_stream:
            raise InvalidOperatorError(
                "aggregate: operand must be finite (apply a window first)"
            )
        if not aggregates:
            raise InvalidOperatorError("aggregate: at least one aggregate needed")
        schema = child.schema
        for name in group_by:
            if name not in schema:
                raise InvalidOperatorError(f"aggregate: unknown attribute {name!r}")
            if schema.is_virtual(name):
                raise VirtualAttributeError(
                    f"aggregate: grouping attribute {name!r} must be real"
                )
        result_names = set(group_by)
        for spec in aggregates:
            if spec.attribute is not None:
                if spec.attribute not in schema:
                    raise InvalidOperatorError(
                        f"aggregate: unknown attribute {spec.attribute!r}"
                    )
                if schema.is_virtual(spec.attribute):
                    raise VirtualAttributeError(
                        f"aggregate: aggregated attribute {spec.attribute!r} "
                        "must be real"
                    )
            if spec.result_name in result_names:
                raise InvalidOperatorError(
                    f"aggregate: duplicate result attribute {spec.result_name!r}"
                )
            result_names.add(spec.result_name)
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        super().__init__((child,))

    def _derive_schema(self) -> ExtendedRelationSchema:
        (child,) = self.children
        schema = child.schema
        attributes = [schema.attribute(n) for n in self.group_by]
        attributes.extend(
            Attribute(spec.result_name, spec.result_dtype(schema))
            for spec in self.aggregates
        )
        return ExtendedRelationSchema(None, attributes)

    def with_children(self, children: Sequence[Operator]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)

    def _compute(self, ctx: EvaluationContext) -> XRelation:
        (child,) = self.children
        relation = child.evaluate(ctx)
        source = relation.schema
        key_positions = [source.real_position(n) for n in self.group_by]
        value_positions = [
            source.real_position(spec.attribute) if spec.attribute is not None else None
            for spec in self.aggregates
        ]
        groups: dict[tuple, list[tuple]] = {}
        for t in relation:
            groups.setdefault(tuple(t[p] for p in key_positions), []).append(t)
        out = []
        for key, members in groups.items():
            row = list(key)
            for spec, position in zip(self.aggregates, value_positions):
                values = (
                    [m[position] for m in members] if position is not None else members
                )
                row.append(spec.compute(values))
            out.append(tuple(row))
        return XRelation(self.schema, out)

    def render(self) -> str:
        (child,) = self.children
        aggs = ", ".join(spec.render() for spec in self.aggregates)
        by = ", ".join(self.group_by)
        return f"aggregate[{by}; {aggs}]({child.render()})"

    def symbol(self) -> str:
        return f"γ[{', '.join(self.group_by)}]"

    def _signature(self) -> tuple:
        return (self.group_by, self.aggregates)
