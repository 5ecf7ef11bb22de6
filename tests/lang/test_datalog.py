"""Tests for the Serena conjunctive calculus (Datalog front-end, §7)."""

import pytest

from repro.errors import ParseError
from repro.lang.datalog import compile_rule, parse_rule


class TestParsing:
    def test_basic_rule(self):
        rule = parse_rule("ans(x, y) :- rel(x, y, _);")
        assert rule.head_name == "ans"
        assert rule.head_vars == ("x", "y")
        assert len(rule.atoms) == 1
        assert rule.atoms[0].relation == "rel"

    def test_constants_and_comparisons(self):
        rule = parse_rule("a(x) :- r(x, 'office', 5, true), x != 'y';")
        (atom,) = rule.atoms
        kinds = [t.kind for t in atom.terms]
        assert kinds == ["var", "const", "const", "const"]
        assert len(rule.comparisons) == 1

    def test_trailing_semicolon_optional(self):
        parse_rule("a(x) :- r(x)")
        parse_rule("a(x) :- r(x);")

    def test_rule_needs_atoms(self):
        with pytest.raises(ParseError, match="at least one relational atom"):
            parse_rule("a(x) :- x > 1;")

    def test_head_variable_must_be_bound(self):
        with pytest.raises(ParseError, match="unsafe rule: head variable"):
            compile_rule("a(z) :- contacts(n, _, _, _, _);", _env())

    def test_comparison_variable_must_be_bound(self):
        with pytest.raises(ParseError, match="comparison variable"):
            compile_rule("a(n) :- contacts(n, _, _, _, _), z > 1;", _env())

    def test_anonymous_not_allowed_in_comparisons(self):
        with pytest.raises(ParseError, match="'_' cannot appear"):
            parse_rule("a(x) :- r(x), _ > 1;")

    def test_repeated_head_variable_rejected(self):
        with pytest.raises(ParseError, match="repeated"):
            compile_rule("a(n, n) :- contacts(n, _, _, _, _);", _env())

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="has 2 terms but"):
            compile_rule("a(n) :- contacts(n, x);", _env())

    @pytest.mark.parametrize("literal", ["1e", "3e+"])
    def test_malformed_number_literal(self, literal):
        with pytest.raises(ParseError) as raised:
            compile_rule(f"h(n) :- contacts(n, _, _, _, _), n = {literal};", _env())
        assert (raised.value.line, raised.value.column) == (1, 38)


def _env():
    from repro.devices.paper_example import build_paper_example

    return build_paper_example().environment


class TestCompilation:
    @pytest.fixture
    def env(self):
        return _env()

    def test_constants_filter(self, env):
        q = compile_rule("who(n) :- contacts(n, _, _, 'email', _);", env)
        assert sorted(q.evaluate(env).relation.column("n")) == ["Carla", "Nicolas"]

    def test_query_named_after_head(self, env):
        q = compile_rule("who(n) :- contacts(n, _, _, _, _);", env)
        assert q.name == "who"
        assert q.schema.names == ("n",)

    def test_virtual_position_triggers_invocation(self, env):
        """Using the temperature position inserts β(getTemperature)."""
        q = compile_rule("temps(s, t) :- sensors(s, _, t);", env)
        shapes = [type(n).__name__ for n in q.root.walk()]
        assert "Invocation" in shapes
        result = q.evaluate(env).relation
        assert len(result) == 4
        assert all(isinstance(v, float) for v in result.column("t"))

    def test_unused_virtual_position_does_not_invoke(self, env):
        q = compile_rule("locs(l) :- sensors(_, l, _);", env)
        shapes = [type(n).__name__ for n in q.root.walk()]
        assert "Invocation" not in shapes
        registry = env.registry
        before = registry.invocation_count
        q.evaluate(env)
        assert registry.invocation_count - before == 0

    def test_chained_realization(self, env):
        """quality AND photo need checkPhoto then takePhoto (in input
        dependency order)."""
        q = compile_rule("pics(c, p) :- cameras(c, _, _, _, p);", env)
        shapes = [type(n).__name__ for n in q.root.walk()]
        assert shapes.count("Invocation") == 2
        result = q.evaluate(env).relation
        assert len(result) == 3
        assert all(isinstance(v, bytes) for v in result.column("p"))

    def test_active_pattern_rejected(self, env):
        with pytest.raises(ParseError, match="ACTIVE"):
            compile_rule("sent(n, s) :- contacts(n, _, _, _, s);", env)

    def test_join_on_shared_variable(self, env):
        q = compile_rule(
            "pair(s1, s2) :- sensors(s1, l, _), sensors(s2, l, _), s1 != s2;",
            env,
        )
        result = q.evaluate(env).relation
        pairs = {tuple(t) for t in result}
        assert ("sensor06", "sensor07") in pairs
        assert ("sensor07", "sensor06") in pairs
        assert len(pairs) == 2  # only the office has two sensors

    def test_repeated_variable_within_atom(self, env):
        """r(x, x) means the two positions must be equal."""
        from repro.devices.scenario import surveillance_schema
        from repro.model.relation import XRelation

        env.add_relation(
            XRelation.from_mappings(
                surveillance_schema(),
                [
                    {"name": "office", "location": "office", "threshold": 1.0},
                    {"name": "Carla", "location": "office", "threshold": 2.0},
                ],
            )
        )
        q = compile_rule("same(x) :- surveillance(x, x, _);", env)
        assert q.evaluate(env).relation.column("x") == ["office"]

    def test_comparison_over_realized_value(self, env):
        q = compile_rule("hot(s, t) :- sensors(s, _, t), t > 20.0;", env)
        result = q.evaluate(env).relation
        assert all(t > 20.0 for t in result.column("t"))

    def test_streams_rejected(self, env):
        from repro.continuous.xdrelation import XDRelation
        from repro.devices.scenario import temperatures_schema

        env.add_relation(XDRelation(temperatures_schema(), infinite=True))
        with pytest.raises(ParseError, match="streams cannot appear"):
            compile_rule("t(x) :- temperatures(_, _, x, _);", env)

    def test_equivalent_to_builder_query(self, env):
        """The rule and the hand-built algebra query agree (the §7
        calculus/algebra correspondence, on the conjunctive fragment)."""
        from repro.algebra import col, scan

        rule_q = compile_rule(
            "ans(s, t) :- sensors(s, 'office', t), t > 15.0;", env
        )
        algebra_q = (
            scan(env, "sensors")
            .select(col("location").eq("office"))
            .invoke("getTemperature")
            .select(col("temperature").gt(15.0))
            .rename("sensor", "s")
            .rename("temperature", "t")
            .project("s", "t")
            .query()
        )
        a = rule_q.evaluate(env, 1).relation
        b = algebra_q.evaluate(env, 1).relation
        assert a == b
