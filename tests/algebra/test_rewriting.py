"""Tests for the rewriting rules of Table 5 and the rule engine."""

import pytest

from repro.algebra import (
    Assignment,
    Invocation,
    NaturalJoin,
    Projection,
    Query,
    Selection,
    check_equivalence,
    col,
    scan,
)
from repro.algebra.rewriting import (
    DEFAULT_RULES,
    PUSHDOWN_RULES,
    RewriteTrace,
    apply_rule,
    rewrite_fixpoint,
    rule_by_name,
)

from tests.environments import random_environment


def plan_shape(node) -> list[str]:
    return [type(n).__name__ for n in node.walk()]


class TestSelectionBelowAssignment:
    """σ_F(α(r)) → α(σ_F(r)) if A ∉ attrs(F)   [Table 5]."""

    def test_applies(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .select(col("name").ne("Carla"))
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("selection_below_assignment"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Assignment", "Selection", "Scan"]

    def test_blocked_when_formula_uses_assigned_attr(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .select(col("text").eq("Hi"))
            .node
        )
        assert apply_rule(plan, rule_by_name("selection_below_assignment")) is None

    def test_preserves_equivalence(self, paper):
        env = paper.environment
        original = (
            scan(env, "contacts")
            .assign("text", "Hi")
            .select(col("name").ne("Carla"))
            .query()
        )
        rewritten = rewrite_fixpoint(original, PUSHDOWN_RULES)
        assert check_equivalence(original, rewritten, env).equivalent


class TestSelectionBelowInvocation:
    """σ_F(β(r)) → β(σ_F(r)) — passive patterns only."""

    def test_applies_to_passive(self, paper_env):
        plan = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("office"))
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("selection_below_invocation"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Invocation", "Selection", "Scan"]

    def test_blocked_for_active(self, paper_env):
        """Pushing σ below an active β would change the action set — the
        Q1/Q1′ trap."""
        plan = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .select(col("name").ne("Carla"))
            .node
        )
        assert apply_rule(plan, rule_by_name("selection_below_invocation")) is None

    def test_blocked_when_formula_uses_outputs(self, paper_env):
        plan = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .select(col("temperature").gt(30.0))
            .node
        )
        assert apply_rule(plan, rule_by_name("selection_below_invocation")) is None

    def test_saves_invocations(self, paper):
        env = paper.environment
        naive = (
            scan(env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("office"))
            .query()
        )
        optimized = rewrite_fixpoint(naive, PUSHDOWN_RULES)
        registry = env.registry

        before = registry.invocation_count
        r_naive = naive.evaluate(env)
        naive_calls = registry.invocation_count - before

        before = registry.invocation_count
        r_opt = optimized.evaluate(env)
        optimized_calls = registry.invocation_count - before

        assert r_naive.relation == r_opt.relation
        assert naive_calls == 4  # all sensors
        assert optimized_calls == 2  # office sensors only

    def test_reverse_direction_hoists(self, paper_env):
        plan = (
            scan(paper_env, "sensors")
            .select(col("location").eq("office"))
            .invoke("getTemperature")
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("invocation_below_selection"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Selection", "Invocation", "Scan"]


class TestSelectionBelowProjection:
    """σ_F(π_L(r)) → π_L(σ_F(r))   [classical]."""

    def test_applies(self, paper_env):
        plan = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .project("sensor", "location", "temperature")
            .select(col("location").eq("office"))
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("selection_below_projection"))
        assert plan_shape(rewritten) == [
            "Projection", "Selection", "Invocation", "Scan"
        ]

    def test_preserves_equivalence_over_an_active_invocation(self, paper):
        """π has no side effects, so σ may pass it even above an active β
        — it then stops at the β."""
        env = paper.environment
        original = (
            scan(env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .project("name", "address", "text", "messenger", "sent")
            .select(col("name").ne("Carla"))
            .query()
        )
        rewritten = rewrite_fixpoint(original)
        assert plan_shape(rewritten.root) == [
            "Projection", "Selection", "Invocation", "Assignment", "Scan"
        ]
        assert check_equivalence(original, rewritten, env).equivalent


class TestProjectionRules:
    def test_projection_below_assignment(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .project("name", "text")
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("projection_below_assignment"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Assignment", "Projection", "Scan"]

    def test_projection_below_assignment_blocked_without_attr(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .project("name", "address")
            .node
        )
        assert apply_rule(plan, rule_by_name("projection_below_assignment")) is None

    def test_projection_below_invocation(self, paper_env):
        plan = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .project("sensor", "temperature")
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("projection_below_invocation"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Invocation", "Projection", "Scan"]

    def test_projection_below_invocation_blocked_when_dropping_bp_attr(
        self, paper_env
    ):
        plan = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .project("temperature")
            .node
        )
        assert apply_rule(plan, rule_by_name("projection_below_invocation")) is None

    def test_cascade_projections(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .project("name", "address", "messenger")
            .project("name")
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("cascade_projections"))
        assert rewritten is not None
        assert plan_shape(rewritten) == ["Projection", "Scan"]


class TestJoinRules:
    def test_selection_pushes_into_left(self, paper_env):
        plan = Selection(
            NaturalJoin(
                scan(paper_env, "contacts").node,
                scan(paper_env, "sensors").node,
            ),
            col("name").eq("Carla"),
        )
        rewritten = apply_rule(plan, rule_by_name("selection_below_join"))
        assert rewritten is not None
        assert isinstance(rewritten, NaturalJoin)
        assert isinstance(rewritten.children[0], Selection)

    def test_selection_pushes_into_right(self, paper_env):
        plan = Selection(
            NaturalJoin(
                scan(paper_env, "contacts").node,
                scan(paper_env, "sensors").node,
            ),
            col("location").eq("office"),
        )
        rewritten = apply_rule(plan, rule_by_name("selection_below_join"))
        assert isinstance(rewritten.children[1], Selection)

    def test_selection_spanning_both_blocked(self, paper_env):
        plan = Selection(
            NaturalJoin(
                scan(paper_env, "contacts").node,
                scan(paper_env, "sensors").node,
            ),
            col("name").eq(col("location")),
        )
        assert apply_rule(plan, rule_by_name("selection_below_join")) is None

    def test_assignment_pushes_into_owner(self, paper_env):
        plan = Assignment(
            NaturalJoin(
                scan(paper_env, "contacts").node,
                scan(paper_env, "sensors").node,
            ),
            "text",
            "Hi",
            False,
        )
        rewritten = apply_rule(plan, rule_by_name("assignment_below_join"))
        assert rewritten is not None
        assert isinstance(rewritten, NaturalJoin)
        assert isinstance(rewritten.children[0], Assignment)

    def test_passive_invocation_pushes_into_owner(self, paper_env):
        joined = NaturalJoin(
            scan(paper_env, "sensors").node,
            scan(paper_env, "contacts").node,
        )
        bp = paper_env.schema("sensors").binding_pattern("getTemperature")
        plan = Invocation(joined, bp)
        rewritten = apply_rule(plan, rule_by_name("invocation_below_join"))
        assert rewritten is not None
        assert isinstance(rewritten, NaturalJoin)
        assert isinstance(rewritten.children[0], Invocation)

    def test_active_invocation_never_moves_through_join(self, paper_env):
        joined = NaturalJoin(
            scan(paper_env, "contacts").assign("text", "Hi").node,
            scan(paper_env, "sensors").node,
        )
        bp = paper_env.schema("contacts").binding_pattern("sendMessage")
        plan = Invocation(joined, bp)
        assert apply_rule(plan, rule_by_name("invocation_below_join")) is None


def office_temperature_query(env):
    """The canonical naive plan: invoke everything, then filter."""
    return (
        scan(env, "sensors")
        .invoke("getTemperature")
        .select(col("location").eq("office"))
        .query("office-temps")
    )


class TestPushdownFixpoint:
    """``rewrite_fixpoint`` over ``PUSHDOWN_RULES`` is the optimizer."""

    def test_pushes_selection_below_invocation(self, paper_env):
        optimized = rewrite_fixpoint(office_temperature_query(paper_env))
        assert plan_shape(optimized.root) == ["Invocation", "Selection", "Scan"]

    def test_never_touches_active_invocations(self, paper_env):
        query = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .select(col("name").ne("Carla"))
            .query()
        )
        shapes = plan_shape(rewrite_fixpoint(query).root)
        # The selection stays ABOVE the active invocation.
        assert shapes.index("Selection") < shapes.index("Invocation")

    def test_preserves_equivalence(self, paper):
        env = paper.environment
        query = office_temperature_query(env)
        optimized = rewrite_fixpoint(query)
        assert check_equivalence(query, optimized, env).equivalent


def _gap_plans(env):
    """The shapes on which a cost-based search over ``DEFAULT_RULES`` once
    beat the fixpoint on measured invocations (``s`` is σ, ``p`` π, ``a``
    α and ``b`` β over items): σ could not pass π, and merging glued a
    pushable σ to one reading β's output."""
    size = col("size").lt(25)
    score = col("score").gt(5.0)
    scored = scan(env, "items").invoke("getScore")
    projected = scored.project("item", "category", "size", "score")
    return {
        "s(p(b))": projected.select(size),
        "s_score(s_size(b))": scored.select(size).select(score),
        "s_score(s_size(p(b)))": scored.project("item", "size", "score")
        .select(size)
        .select(score),
        "s(p(b) join categories)": projected.join(scan(env, "categories"))
        .select(size),
        "s_score(s_size(a(b)))": scored.assign("done", True)
        .select(size)
        .select(score),
        "s_score(s_size(b join categories))": scored.join(
            scan(env, "categories")
        )
        .select(size)
        .select(score),
    }


class TestClosedGaps:
    @pytest.mark.parametrize(
        "shape", list(_gap_plans(random_environment(0).environment))
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_every_pushable_selection_ends_below_the_invocation(
        self, shape, seed
    ):
        env = random_environment(seed).environment
        query = _gap_plans(env)[shape].query()
        pushed = rewrite_fixpoint(query)
        (invocation,) = [
            n for n in pushed.root.walk() if isinstance(n, Invocation)
        ]
        below = set(map(id, invocation.children[0].walk()))
        for node in pushed.root.walk():
            if isinstance(node, Selection):
                reads_output = "score" in node.formula.attributes()
                assert (id(node) in below) != reads_output, pushed.render()
        assert (
            pushed.profile(env, seed).invocations
            < query.profile(env, seed).invocations
        )
        assert check_equivalence(query, pushed, env, instant=seed).equivalent


class TestEngine:
    def test_merge_selections(self, paper_env):
        plan = (
            scan(paper_env, "contacts")
            .select(col("name").ne("Carla"))
            .select(col("messenger").eq("email"))
            .node
        )
        rewritten = apply_rule(plan, rule_by_name("merge_selections"))
        assert plan_shape(rewritten) == ["Selection", "Scan"]

    def test_fixpoint_terminates_and_traces(self, paper_env):
        query = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("office"))
            .select(col("sensor").ne("sensor06"))
            .query("nested")
        )
        trace = RewriteTrace()
        rewritten = rewrite_fixpoint(query, PUSHDOWN_RULES, trace=trace)
        assert isinstance(rewritten, Query)
        assert rewritten.name == "nested"
        assert len(trace) >= 2
        shape = plan_shape(rewritten.root)
        assert shape == ["Invocation", "Selection", "Scan"]

    def test_apply_rule_returns_none_when_inapplicable(self, paper_env):
        plan = scan(paper_env, "contacts").node
        for rule in DEFAULT_RULES:
            assert apply_rule(plan, rule) is None

    def test_all_pushdown_rules_preserve_equivalence_on_random_env(self):
        """Rewriting must preserve Definition 9 on arbitrary environments."""
        for seed in range(3):
            rnd = random_environment(seed)
            env = rnd.environment
            query = (
                scan(env, "items")
                .invoke("getScore")
                .select(col("category").eq("alpha"))
                .project("item", "category", "score")
                .query()
            )
            rewritten = rewrite_fixpoint(query, PUSHDOWN_RULES)
            assert rewritten.root != query.root  # something fired
            report = check_equivalence(query, rewritten, env, instant=seed)
            assert report.equivalent
