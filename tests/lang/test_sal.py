"""Tests for the Serena Algebra Language parser and round-tripping."""

import pytest

from repro.algebra import (
    Aggregate,
    Assignment,
    Difference,
    Intersection,
    Invocation,
    NaturalJoin,
    Projection,
    Renaming,
    Scan,
    Selection,
    Streaming,
    Union,
    Window,
    col,
    scan,
)
from repro.errors import ParseError
from repro.lang import parse_formula, parse_query, to_sal


class TestOperators:
    def test_scan(self, paper_env):
        q = parse_query("contacts", paper_env)
        assert isinstance(q.root, Scan)
        assert q.root.name == "contacts"

    def test_unknown_relation(self, paper_env):
        from repro.errors import UnknownRelationError

        with pytest.raises(UnknownRelationError):
            parse_query("ghost", paper_env)

    def test_project(self, paper_env):
        q = parse_query("project[name, address](contacts)", paper_env)
        assert isinstance(q.root, Projection)
        assert q.root.names == ("name", "address")

    def test_select(self, paper_env):
        q = parse_query("select[name != 'Carla'](contacts)", paper_env)
        assert isinstance(q.root, Selection)
        assert q.root.formula == col("name").ne("Carla")

    def test_rename(self, paper_env):
        q = parse_query("rename[name -> who](contacts)", paper_env)
        assert isinstance(q.root, Renaming)
        assert (q.root.old, q.root.new) == ("name", "who")

    def test_assign_constant(self, paper_env):
        q = parse_query("assign[text := 'Hi'](contacts)", paper_env)
        assert isinstance(q.root, Assignment)
        assert q.root.value == "Hi"
        assert not q.root.from_attribute

    def test_assign_from_attribute(self, paper_env):
        q = parse_query("assign[text := address](contacts)", paper_env)
        assert q.root.from_attribute
        assert q.root.value == "address"

    def test_assign_boolean(self, paper_env):
        q = parse_query("assign[sent := true](contacts)", paper_env)
        assert q.root.value is True

    def test_invoke(self, paper_env):
        q = parse_query("invoke[getTemperature, sensor](sensors)", paper_env)
        assert isinstance(q.root, Invocation)
        assert q.root.binding_pattern.prototype.name == "getTemperature"

    def test_invoke_without_service_attr(self, paper_env):
        q = parse_query("invoke[getTemperature](sensors)", paper_env)
        assert q.root.binding_pattern.service_attribute == "sensor"

    def test_binary_operators(self, paper_env):
        for word, cls in (
            ("join", NaturalJoin),
            ("union", Union),
            ("intersection", Intersection),
            ("difference", Difference),
        ):
            q = parse_query(f"{word}(contacts, contacts)", paper_env)
            assert isinstance(q.root, cls)

    def test_window_and_stream(self, paper_env):
        from repro.continuous.xdrelation import XDRelation
        from repro.devices.scenario import temperatures_schema

        paper_env.add_relation(XDRelation(temperatures_schema(), infinite=True))
        q = parse_query("window[5](temperatures)", paper_env)
        assert isinstance(q.root, Window)
        assert q.root.period == 5
        q2 = parse_query("stream[insertion](window[1](temperatures))", paper_env)
        assert isinstance(q2.root, Streaming)

    def test_aggregate(self, paper_env):
        q = parse_query(
            "aggregate[messenger; count(*) as n, min(name) as first](contacts)",
            paper_env,
        )
        assert isinstance(q.root, Aggregate)
        assert q.root.group_by == ("messenger",)
        assert len(q.root.aggregates) == 2

    def test_aggregate_no_groups(self, paper_env):
        q = parse_query("aggregate[; count(*) as n](contacts)", paper_env)
        assert q.root.group_by == ()

    def test_trailing_garbage(self, paper_env):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("contacts extra", paper_env)

    @pytest.mark.parametrize("delay", ["2.5", "1e"])
    def test_malformed_invocation_delay(self, paper_env, delay):
        text = f"invoke[sendMessage, messenger, {delay}](assign[text := 'x'](contacts))"
        with pytest.raises(ParseError) as raised:
            parse_query(text, paper_env)
        assert (raised.value.line, raised.value.column) == (1, 32)


class TestFormulas:
    def test_comparators(self):
        f = parse_formula("a <= 5 and b > 1.5")
        assert f.evaluate({"a": 5, "b": 2.0})

    def test_precedence_and_binds_tighter(self):
        f = parse_formula("a = 1 or b = 2 and c = 3")
        assert f.evaluate({"a": 1, "b": 0, "c": 0})
        assert f.evaluate({"a": 0, "b": 2, "c": 3})
        assert not f.evaluate({"a": 0, "b": 2, "c": 0})

    def test_parentheses(self):
        f = parse_formula("(a = 1 or b = 2) and c = 3")
        assert not f.evaluate({"a": 1, "b": 0, "c": 0})

    def test_not(self):
        f = parse_formula("not a = 1")
        assert f.evaluate({"a": 2})

    def test_contains(self):
        f = parse_formula("title contains 'Obama'")
        assert f.evaluate({"title": "Obama speaks"})

    def test_attribute_comparison(self):
        f = parse_formula("temperature > threshold")
        assert f.evaluate({"temperature": 30.0, "threshold": 28.0})

    def test_boolean_literal(self):
        f = parse_formula("sent = true")
        assert f.evaluate({"sent": True})
        assert not f.evaluate({"sent": False})

    def test_bare_true(self):
        f = parse_formula("true")
        assert f.evaluate({})

    def test_string_escape(self):
        f = parse_formula("name = 'O''Brien'")
        assert f.evaluate({"name": "O'Brien"})


class TestRoundTrip:
    """render() output parses back to a structurally equal plan."""

    @pytest.fixture
    def cases(self, paper_env):
        temperature_env = paper_env
        return [
            scan(temperature_env, "contacts").query(),
            scan(temperature_env, "contacts").project("name", "messenger").query(),
            scan(temperature_env, "contacts")
            .select(col("name").ne("Carla") & col("messenger").eq("email"))
            .query(),
            scan(temperature_env, "contacts").rename("name", "who").query(),
            scan(temperature_env, "contacts")
            .assign("text", "Bonjour!")
            .invoke("sendMessage")
            .query(),
            scan(temperature_env, "contacts").assign_from("text", "address").query(),
            scan(temperature_env, "cameras")
            .invoke("checkPhoto")
            .select(col("quality").ge(5))
            .invoke("takePhoto")
            .project("photo")
            .query(),
            scan(temperature_env, "contacts")
            .union(scan(temperature_env, "contacts"))
            .query(),
            scan(temperature_env, "contacts")
            .aggregate(["messenger"], ("count", None, "n"))
            .query(),
        ]

    def test_round_trips(self, paper_env, cases):
        for query in cases:
            text = to_sal(query)
            reparsed = parse_query(text, paper_env)
            assert reparsed.root == query.root, text

    def test_stream_round_trip(self, paper_env):
        from repro.continuous.xdrelation import XDRelation
        from repro.devices.scenario import temperatures_schema

        paper_env.add_relation(XDRelation(temperatures_schema(), infinite=True))
        query = (
            scan(paper_env, "temperatures")
            .window(1)
            .select(col("temperature").gt(35.5))
            .stream("insertion")
            .query()
        )
        assert parse_query(to_sal(query), paper_env).root == query.root


def test_every_registered_scenario_query_round_trips():
    """What a scenario registers prints to SAL and parses back to the same
    plan: nothing a registered plan carries is lost by the printer."""
    from repro.city.config import CityConfig
    from repro.city.scenario import build_city
    from repro.devices.scenario import (
        build_rss_scenario,
        build_temperature_surveillance,
    )

    scenarios = (
        build_temperature_surveillance(),
        build_rss_scenario(),
        build_city(CityConfig(zones=2, stations_per_zone=1)),
    )
    checked = []
    for scenario in scenarios:
        env = scenario.pems.environment
        for name, cq in sorted(scenario.pems.queries.continuous_queries.items()):
            text = to_sal(cq.query)
            assert parse_query(text, env).root == cq.query.root, (name, text)
            checked.append(name)
    assert len(checked) == 14
