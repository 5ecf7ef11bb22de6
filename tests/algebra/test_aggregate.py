"""Tests for the aggregation extension operator."""

import pytest

from repro.algebra import AggregateSpec, col, scan
from repro.errors import InvalidOperatorError, VirtualAttributeError
from repro.model.attributes import Attribute
from repro.model.relation import XRelation
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema


class TestAggregate:
    def test_mean_temperature_per_location(self, paper_env):
        """The motivating example: mean temperature for a location."""
        q = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .aggregate(["location"], ("avg", "temperature", "mean_temp"))
            .query()
        )
        result = q.evaluate(paper_env).relation
        rows = {m["location"]: m["mean_temp"] for m in result.to_mappings()}
        assert set(rows) == {"corridor", "office", "roof"}
        assert all(isinstance(v, float) for v in rows.values())

    def test_count_star(self, paper_env):
        q = (
            scan(paper_env, "contacts")
            .aggregate(["messenger"], ("count", None, "n"))
            .query()
        )
        rows = {
            m["messenger"]: m["n"]
            for m in q.evaluate(paper_env).relation.to_mappings()
        }
        assert rows == {"email": 2, "jabber": 1}

    def test_global_aggregate_no_groups(self, paper_env):
        q = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .aggregate([], ("max", "temperature", "hottest"), ("count", None, "n"))
            .query()
        )
        (row,) = q.evaluate(paper_env).relation.to_mappings()
        assert row["n"] == 4

    def test_empty_input_empty_output(self, paper_env):
        q = (
            scan(paper_env, "contacts")
            .select(col("name").eq("Ghost"))
            .aggregate([], ("count", None, "n"))
            .query()
        )
        assert len(q.evaluate(paper_env).relation) == 0

    def test_min_max_preserve_type(self, paper_env):
        node = (
            scan(paper_env, "contacts")
            .aggregate(["messenger"], ("min", "name", "first_name"))
            .node
        )
        assert node.schema.dtype("first_name") is DataType.STRING

    def test_avg_yields_real(self, paper_env):
        node = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .aggregate([], ("avg", "temperature", "m"))
            .node
        )
        assert node.schema.dtype("m") is DataType.REAL

    def test_sum_non_numeric_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError, match="numeric"):
            scan(paper_env, "contacts").aggregate(
                ["messenger"], ("sum", "name", "s")
            )

    def test_group_by_virtual_rejected(self, paper_env):
        with pytest.raises(VirtualAttributeError):
            scan(paper_env, "contacts").aggregate(["text"], ("count", None, "n"))

    def test_aggregate_virtual_rejected(self, paper_env):
        with pytest.raises(VirtualAttributeError):
            scan(paper_env, "sensors").aggregate(
                ["location"], ("avg", "temperature", "m")
            )

    def test_duplicate_result_name_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError, match="duplicate"):
            scan(paper_env, "contacts").aggregate(
                ["messenger"], ("count", None, "messenger")
            )

    def test_no_aggregates_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError, match="at least one"):
            scan(paper_env, "contacts").aggregate(["messenger"])

    def test_binding_patterns_dropped(self, paper_env):
        node = (
            scan(paper_env, "contacts")
            .aggregate(["messenger"], ("count", None, "n"))
            .node
        )
        assert node.schema.binding_patterns == ()

    def test_unknown_function(self):
        with pytest.raises(InvalidOperatorError, match="unknown aggregate"):
            AggregateSpec("median", "x", "m")

    def test_count_without_attribute_only(self):
        with pytest.raises(InvalidOperatorError, match="requires an attribute"):
            AggregateSpec("sum", None, "s")


#: Floats whose builtin ``sum`` depends on the order they are met in
#: (1e16 absorbs the small terms added before it cancels): 4.0, 6.0, 3.2
#: or 5.1 for the naive engine's frozenset order under four hash seeds,
#: 5.8 in sorted order.  The true sum is 5.1.
ILL_CONDITIONED = [0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 0.4, 1.1, 2.3]


def every_order(values):
    for k in range(len(values)):
        rotated = values[k:] + values[:k]
        yield rotated
        yield rotated[::-1]


class TestComputeIsAFunctionOfTheGroup:
    """γ's ``sum`` is the correctly rounded sum of the group, whatever
    order an engine meets its members in."""

    @pytest.mark.parametrize("function, expected", [("sum", 5.1), ("avg", 5.1 / 9)])
    def test_float_sum_and_avg_ignore_member_order(self, function, expected):
        spec = AggregateSpec(function, "x", "out")
        results = {spec.compute(order) for order in every_order(ILL_CONDITIONED)}
        assert results == {expected}

    def test_integer_sum_stays_an_exact_int(self):
        values = [2**62, 3, -(2**62), 2**53 + 1, -(2**53), 7]
        for order in every_order(values):
            total = AggregateSpec("sum", "n", "out").compute(order)
            assert total == 11 and type(total) is int
            assert AggregateSpec("avg", "n", "out").compute(order) == 11 / 6

    def test_naive_aggregate_ignores_set_iteration_order(self, paper_env):
        """The oracle folds each group in frozenset order; renaming the
        members reshuffles that order, the aggregate row must not move
        (it did, through builtin ``sum``)."""
        schema = ExtendedRelationSchema(
            "loads",
            [Attribute("meter", DataType.STRING), Attribute("load", DataType.REAL)],
        )
        for k in range(16):
            paper_env.add_relation(
                XRelation(
                    schema,
                    [(f"m{k}-{i}", v) for i, v in enumerate(ILL_CONDITIONED)],
                )
            )
            q = (
                scan(paper_env, "loads")
                .aggregate([], ("sum", "load", "total"), ("avg", "load", "mean"))
                .query()
            )
            assert q.evaluate(paper_env).relation.tuples == {(5.1, 5.1 / 9)}
