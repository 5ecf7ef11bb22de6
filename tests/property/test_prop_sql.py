"""Property-based tests: Serena SQL compiles to the same semantics as the
hand-built algebra for templated queries."""

from hypothesis import given, settings, strategies as st

from repro.algebra import col, scan
from repro.lang.sql import compile_sql

from tests.environments import random_environment
from tests.property.strategies import CATEGORIES

ENV = random_environment(0)

sizes = st.integers(min_value=0, max_value=50)
categories = st.sampled_from(CATEGORIES)


class TestWhereEquivalence:
    @given(categories, sizes)
    @settings(max_examples=60, deadline=None)
    def test_where_matches_builder_selection(self, category, size):
        env = ENV.environment
        sql = compile_sql(
            f"SELECT item, category, size FROM items "
            f"WHERE category = '{category}' AND size < {size}",
            env,
        )
        built = (
            scan(env, "items")
            .select(col("category").eq(category) & col("size").lt(size))
            .project("item", "category", "size")
            .query()
        )
        assert sql.evaluate(env).relation == built.evaluate(env).relation

    @given(categories)
    @settings(max_examples=30, deadline=None)
    def test_using_matches_builder_invocation(self, category):
        env = ENV.environment
        sql = compile_sql(
            f"SELECT item, score FROM items WHERE category = '{category}' "
            "USING getScore",
            env,
        )
        built = (
            scan(env, "items")
            .select(col("category").eq(category))
            .invoke("getScore")
            .project("item", "score")
            .query()
        )
        a = sql.evaluate(env, 1)
        b = built.evaluate(env, 1)
        assert a.relation == b.relation
        assert a.actions == b.actions

    @given(categories, sizes)
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_builder_aggregate(self, category, size):
        env = ENV.environment
        sql = compile_sql(
            f"SELECT category, count(*) AS n FROM items "
            f"WHERE size >= {size} GROUP BY category",
            env,
        )
        built = (
            scan(env, "items")
            .select(col("size").ge(size))
            .aggregate(["category"], ("count", None, "n"))
            .query()
        )
        assert sql.evaluate(env).relation == built.evaluate(env).relation

    @given(categories)
    @settings(max_examples=30, deadline=None)
    def test_join_matches_builder(self, category):
        env = ENV.environment
        sql = compile_sql(
            "SELECT item, category, priority FROM items NATURAL JOIN "
            f"categories WHERE category != '{category}'",
            env,
        )
        built = (
            scan(env, "items")
            .join(scan(env, "categories"))
            .select(col("category").ne(category))
            .project("item", "category", "priority")
            .query()
        )
        assert sql.evaluate(env).relation == built.evaluate(env).relation
