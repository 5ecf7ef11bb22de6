"""Property-based round-trip tests for the language layer."""

from hypothesis import given, settings, strategies as st

from repro.algebra import scan
from repro.lang import parse_formula, parse_query, to_sal

from tests.environments import random_environment
from tests.property.strategies import formulas

ENV = random_environment(0)


class TestFormulaRoundTrip:
    @given(formulas(max_depth=5))
    @settings(max_examples=120, deadline=None)
    def test_render_parse_identity(self, formula):
        assert parse_formula(formula.render()) == formula

    @given(formulas(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reparsed_formula_evaluates_identically(self, formula, data):
        row = {
            "category": data.draw(st.sampled_from(["alpha", "beta", "gamma"])),
            "size": data.draw(st.integers(min_value=0, max_value=50)),
            "item": data.draw(st.sampled_from(["svc00", "svc01"])),
        }
        reparsed = parse_formula(formula.render())
        assert reparsed.evaluate(row) == formula.evaluate(row)


@st.composite
def plans(draw):
    """Random parseable plans over the random environment."""
    env = ENV.environment
    builder = scan(env, "items")
    invoked = False
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        op = draw(st.sampled_from(["select", "project", "rename", "invoke", "join", "agg"]))
        if op == "select":
            formula = draw(formulas())
            if formula.attributes() <= builder.schema.real_names:
                builder = builder.select(formula)
        elif op == "project":
            # keep everything real plus score if present: stays parseable
            keep = [n for n in builder.schema.names if n in ("item", "category", "size", "score")]
            if keep:
                builder = builder.project(*keep)
        elif op == "rename":
            if "size" in builder.schema:
                builder = builder.rename("size", "bulk")
        elif op == "invoke" and not invoked:
            try:
                builder = builder.invoke("getScore")
                invoked = True
            except Exception:
                pass
        elif op == "join":
            if "priority" not in builder.schema.name_set:
                builder = builder.join(scan(env, "categories"))
        elif op == "agg":
            if "category" in builder.schema and builder.schema.is_real("category"):
                builder = builder.aggregate(["category"], ("count", None, "n"))
    return builder.query()


class TestPlanRoundTrip:
    @given(plans())
    @settings(max_examples=80, deadline=None)
    def test_render_parse_identity(self, query):
        text = to_sal(query)
        assert parse_query(text, ENV.environment).root == query.root

    @given(plans())
    @settings(max_examples=40, deadline=None)
    def test_reparsed_plan_evaluates_identically(self, query):
        reparsed = parse_query(to_sal(query), ENV.environment)
        original = query.evaluate(ENV.environment, 1)
        again = reparsed.evaluate(ENV.environment, 1)
        assert original.relation == again.relation
        assert original.actions == again.actions
