"""Property-based tests: every rewrite rule preserves Definition 9
equivalence on randomized plans and environments."""

from hypothesis import given, settings, strategies as st

from repro.algebra import Query, check_equivalence, col, scan
from repro.algebra.rewriting import (
    DEFAULT_RULES,
    PUSHDOWN_RULES,
    apply_everywhere,
    rewrite_fixpoint,
)
from repro.errors import SerenaError

from tests.environments import random_environment
from tests.property.strategies import formulas

#: What a later step may need: β's service and input attributes, every
#: attribute ``formulas()`` reads, and the patterns' outputs.
NEEDED = {"item", "category", "size", "score", "done"}


@st.composite
def random_plans(draw, env_handle):
    """A random plan over the items/categories relations.

    Plans interleave selections, projections that keep every attribute a
    later β or σ needs, assignment, passive invocation and a join — the
    operators the rewrite rules move around.
    """
    env = env_handle.environment
    builder = scan(env, "items")
    did_invoke = False
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        choice = draw(
            st.sampled_from(["select", "invoke", "project", "join", "assign"])
        )
        if choice == "select":
            formula = draw(formulas())
            usable = formula.attributes() <= builder.schema.real_names
            if usable:
                builder = builder.select(formula)
        elif choice == "invoke" and not did_invoke:
            builder = builder.invoke("getScore")
            did_invoke = True
        elif choice == "project":
            names = builder.schema.names
            builder = builder.project(
                *(n for n in names if n in NEEDED or draw(st.booleans()))
            )
        elif choice == "join":
            if "priority" not in builder.schema.name_set:
                builder = builder.join(scan(env, "categories"))
        elif choice == "assign":
            if "done" in builder.schema and builder.schema.is_virtual("done"):
                builder = builder.assign("done", True)
    return builder.query()


class TestRuleSoundness:
    @given(st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_applicable_rule_preserves_equivalence(self, seed, data):
        env_handle = random_environment(seed)
        query = data.draw(random_plans(env_handle))
        instant = data.draw(st.integers(min_value=0, max_value=3))
        for rule in DEFAULT_RULES:
            for rewritten_root in apply_everywhere(query.root, rule):
                rewritten = Query(rewritten_root)
                report = check_equivalence(
                    query, rewritten, env_handle.environment, instant
                )
                assert report.equivalent, (
                    f"rule {rule.name} broke equivalence on {query.render()}"
                )

    @given(st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pushdown_fixpoint_preserves_equivalence(self, seed, data):
        env_handle = random_environment(seed)
        query = data.draw(random_plans(env_handle))
        rewritten = rewrite_fixpoint(query, PUSHDOWN_RULES)
        report = check_equivalence(query, rewritten, env_handle.environment)
        assert report.equivalent

    @given(st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_pushdown_never_increases_invocations(self, seed, data):
        """The heuristic's whole point: fewer or equal service calls."""
        env_handle = random_environment(seed)
        env = env_handle.environment
        query = data.draw(random_plans(env_handle))
        rewritten = rewrite_fixpoint(query, PUSHDOWN_RULES)

        registry = env.registry
        before = registry.invocation_count
        query.evaluate(env)
        naive = registry.invocation_count - before
        before = registry.invocation_count
        rewritten.evaluate(env)
        optimized = registry.invocation_count - before
        assert optimized <= naive
