"""Tests for Query, QueryResult, actions and the plan builder."""

import pytest

from repro.algebra import (
    Action,
    ActionSet,
    Query,
    QueryResult,
    col,
    scan,
)
from repro.model.binding import BindingPattern
from repro.devices.prototypes import SEND_MESSAGE
from repro.lang.printer import explain


class TestQuery:
    def test_schema_exposed(self, paper_env):
        q = scan(paper_env, "contacts").project("name").query()
        assert q.schema.names == ("name",)

    def test_result_iterable(self, paper_env):
        result = scan(paper_env, "contacts").query().evaluate(paper_env)
        assert isinstance(result, QueryResult)
        assert len(result) == 3
        assert len(list(result)) == 3

    def test_named_query(self, paper_env):
        q = scan(paper_env, "contacts").query("my-query")
        assert q.name == "my-query"
        assert "my-query" in repr(q)

    def test_structural_equality(self, paper_env):
        a = scan(paper_env, "contacts").project("name").query()
        b = scan(paper_env, "contacts").project("name").query()
        c = scan(paper_env, "contacts").project("address").query()
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_render_and_explain(self, paper_env):
        q = scan(paper_env, "contacts").select(col("name").eq("Carla")).query()
        assert q.render() == "select[name = 'Carla'](contacts)"
        assert "σ" in explain(q)

    def test_is_stream(self, paper_env):
        finite = scan(paper_env, "contacts").query()
        assert not finite.is_stream
        stream = scan(paper_env, "contacts").stream("insertion").query()
        assert stream.is_stream

    def test_evaluation_instant_recorded(self, paper_env):
        result = scan(paper_env, "contacts").query().evaluate(paper_env, 7)
        assert result.instant == 7


class TestActions:
    def test_action_describe(self):
        bp = BindingPattern(SEND_MESSAGE, "messenger")
        action = Action(bp, "email", ("a@b.c", "Hi"))
        assert action.describe() == "(sendMessage, email, (a@b.c, Hi))"

    def test_action_set_collapses_duplicates(self):
        bp = BindingPattern(SEND_MESSAGE, "messenger")
        a1 = Action(bp, "email", ("a@b.c", "Hi"))
        a2 = Action(bp, "email", ("a@b.c", "Hi"))
        assert len(ActionSet([a1, a2])) == 1

    def test_action_set_describe_is_sorted(self):
        bp = BindingPattern(SEND_MESSAGE, "messenger")
        actions = ActionSet(
            [
                Action(bp, "jabber", ("z@x.org", "Hi")),
                Action(bp, "email", ("a@b.c", "Hi")),
            ]
        )
        lines = actions.describe().splitlines()
        assert lines[0].startswith("(sendMessage, email")

    def test_action_set_equality_is_set_equality(self):
        bp = BindingPattern(SEND_MESSAGE, "messenger")
        a = ActionSet([Action(bp, "email", ("a", "b"))])
        b = frozenset({Action(bp, "email", ("a", "b"))})
        assert a == b


class TestBuilder:
    def test_builder_chains_are_immutable(self, paper_env):
        base = scan(paper_env, "contacts")
        one = base.project("name")
        two = base.project("address")
        assert one.schema.names == ("name",)
        assert two.schema.names == ("address",)

    def test_union_via_builder(self, paper_env):
        a = scan(paper_env, "contacts").select(col("name").eq("Carla"))
        b = scan(paper_env, "contacts").select(col("name").eq("Nicolas"))
        q = a.union(b).query()
        assert len(q.evaluate(paper_env).relation) == 2

    def test_intersect_difference_via_builder(self, paper_env):
        everyone = scan(paper_env, "contacts")
        email_only = scan(paper_env, "contacts").select(
            col("messenger").eq("email")
        )
        inter = everyone.intersect(email_only).query()
        assert len(inter.evaluate(paper_env).relation) == 2
        diff = everyone.difference(email_only).query()
        assert diff.evaluate(paper_env).relation.column("name") == ["Francois"]

    def test_invoke_resolves_ambiguity_with_service_attr(self, paper_env):
        """cameras has two patterns; prototype name disambiguates."""
        builder = scan(paper_env, "cameras").invoke("checkPhoto", "camera")
        assert "quality" in builder.schema.real_names

    def test_memoized_shared_subplan(self, paper_env):
        """A node shared between two branches evaluates once per instant."""
        shared = scan(paper_env, "sensors").invoke("getTemperature")
        q = shared.union(shared).query()
        registry = paper_env.registry
        before = registry.invocation_count
        q.evaluate(paper_env)
        assert registry.invocation_count - before == 4  # not 8: memoized


class TestProfile:
    def test_per_node_cardinalities(self, paper_env):
        from repro.algebra import col, scan

        q = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("office"))
            .query()
        )
        profile = q.profile(paper_env)
        assert [n.output_tuples for n in profile.nodes] == [2, 4, 4]
        assert [n.depth for n in profile.nodes] == [0, 1, 2]
        assert profile.invocations == 4
        assert len(profile.result.relation) == 2

    def test_profile_counts_only_its_own_invocations(self, paper_env):
        from repro.algebra import scan

        warmup = scan(paper_env, "sensors").invoke("getTemperature").query()
        warmup.evaluate(paper_env)  # unrelated invocations beforehand
        profile = scan(paper_env, "sensors").query().profile(paper_env)
        assert profile.invocations == 0

    def test_render_shows_counts(self, paper_env):
        from repro.algebra import scan

        profile = scan(paper_env, "contacts").project("name").query().profile(paper_env)
        text = profile.render()
        assert "[3 tuples]" in text
        assert "service invocations: 0" in text

    def test_profile_shows_pushdown_benefit(self, paper):
        """The profiled invocation counts visualize what the pushdown
        fixpoint saves (4 calls naive vs 2 pushed-down)."""
        from repro.algebra import col, rewrite_fixpoint, scan

        env = paper.environment
        naive = (
            scan(env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("office"))
            .query()
        )
        assert naive.profile(env).invocations == 4
        assert rewrite_fixpoint(naive).profile(env).invocations == 2
