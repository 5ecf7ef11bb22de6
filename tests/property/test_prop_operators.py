"""Property-based tests on operator laws over X-Relations."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.algebra import Query, scan
from repro.model.relation import XRelation

from tests.environments import random_environment
from tests.property.strategies import formulas, item_rows


def items_relation(env_handle, rows):
    """An X-Relation over the items schema with the given rows."""
    return XRelation.from_mappings(env_handle.items_schema, rows)


def run(plan, env):
    return Query(plan.node if hasattr(plan, "node") else plan).evaluate(
        env.environment
    ).relation


ENV = random_environment(0)
_NAMES = itertools.count()


def plan_of(relation):
    """A scan of ``relation``, stored in ENV under a fresh name."""
    name = f"items_{next(_NAMES)}"
    ENV.environment.add_relation(relation, name)
    return scan(ENV.environment, name)


class TestSelectionLaws:
    @given(formulas(), formulas(), st.lists(item_rows, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_selections_commute(self, f, g, rows):
        rel = items_relation(ENV, rows)
        fg = plan_of(rel).select(f).select(g)
        gf = plan_of(rel).select(g).select(f)
        assert run(fg, ENV) == run(gf, ENV)

    @given(formulas(), st.lists(item_rows, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_selection_is_subset(self, f, rows):
        rel = items_relation(ENV, rows)
        selected = run(plan_of(rel).select(f), ENV)
        assert selected.tuples <= rel.tuples

    @given(formulas(), st.lists(item_rows, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_selection_idempotent(self, f, rows):
        rel = items_relation(ENV, rows)
        once = run(plan_of(rel).select(f), ENV)
        twice = run(plan_of(rel).select(f).select(f), ENV)
        assert once == twice

    @given(formulas(), st.lists(item_rows, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_selection_complement_partitions(self, f, rows):
        rel = items_relation(ENV, rows)
        yes = run(plan_of(rel).select(f), ENV)
        no = run(plan_of(rel).select(~f), ENV)
        assert yes.tuples | no.tuples == rel.tuples
        assert yes.tuples & no.tuples == frozenset()


class TestSetOperatorLaws:
    @given(st.lists(item_rows, max_size=8), st.lists(item_rows, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_union_commutative(self, rows_a, rows_b):
        a, b = items_relation(ENV, rows_a), items_relation(ENV, rows_b)
        ab = plan_of(a).union(plan_of(b))
        ba = plan_of(b).union(plan_of(a))
        assert run(ab, ENV) == run(ba, ENV)

    @given(st.lists(item_rows, max_size=8), st.lists(item_rows, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_intersection_via_difference(self, rows_a, rows_b):
        """A ∩ B = A − (A − B)."""
        a, b = items_relation(ENV, rows_a), items_relation(ENV, rows_b)
        inter = run(plan_of(a).intersect(plan_of(b)), ENV)
        via_diff = run(
            plan_of(a).difference(plan_of(a).difference(plan_of(b))), ENV
        )
        assert inter == via_diff

    @given(st.lists(item_rows, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_union_idempotent(self, rows):
        a = items_relation(ENV, rows)
        assert run(plan_of(a).union(plan_of(a)), ENV) == a


class TestProjectionLaws:
    @given(st.lists(item_rows, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_projection_cascade(self, rows, data):
        rel = items_relation(ENV, rows)
        outer = data.draw(
            st.lists(st.sampled_from(["item", "category"]), min_size=1, unique=True)
        )
        cascaded = plan_of(rel).project("item", "category", "size").project(*outer)
        direct = plan_of(rel).project(*outer)
        assert run(cascaded, ENV) == run(direct, ENV)

    @given(st.lists(item_rows, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_projection_cardinality_bounded(self, rows):
        rel = items_relation(ENV, rows)
        projected = run(plan_of(rel).project("category"), ENV)
        assert len(projected) <= len(rel)


class TestJoinLaws:
    @given(st.lists(item_rows, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_join_with_categories_matches_filtering(self, rows):
        """items ⋈ categories keeps exactly the items whose category
        appears in categories (all of them, by construction)."""
        rel = items_relation(ENV, rows)
        joined = run(plan_of(rel).join(plan_of_categories()), ENV)
        assert len(joined) == len(rel)

    @given(st.lists(item_rows, max_size=6), st.lists(item_rows, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_join_commutes_on_tuple_content(self, rows_a, rows_b):
        a, b = items_relation(ENV, rows_a), items_relation(ENV, rows_b)
        ab = run(plan_of(a).join(plan_of(b)), ENV)
        ba = run(plan_of(b).join(plan_of(a)), ENV)
        assert {frozenset(m.items()) for m in ab.to_mappings()} == {
            frozenset(m.items()) for m in ba.to_mappings()
        }


def plan_of_categories():
    return scan(ENV.environment, "categories")
