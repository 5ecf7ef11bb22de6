"""Front-end differentials: every surface language reaches the same algebra.

Experiment X3's "three routes, one query" check, widened to Table 4's
Q1, Q2 and Q3 and to the rule calculus (which covers the passive
fragment, so it expresses Q2 only), plus the DDL of Tables 1–2 and the
``PROTOTYPE`` lines that the device modules document.
"""

import pytest

import repro.city.devices as city_devices
import repro.devices.prototypes as standard_prototypes
from repro.algebra import col, scan
from repro.continuous.time import VirtualClock
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.prototypes import STANDARD_PROTOTYPES
from repro.devices.scenario import cameras_schema, contacts_schema, temperatures_schema
from repro.lang import compile_rule, compile_sql, parse_query
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.pems.table_manager import ExtendedTableManager
from tests.lang.test_ddl import TABLE1_DDL, TABLE2_DDL

#: When Q3 is evaluated, and the office reading that crosses 35.5 then.
Q3_INSTANT = 2
HOT_READINGS = {1: 30.0, 2: 36.0, 3: 33.0}


def q1_builder(env):
    return (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .query()
    )


def q2_builder(env):
    return (
        scan(env, "cameras")
        .select(col("area").eq("office"))
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .project("photo")
        .query()
    )


def q3_builder(env):
    return (
        scan(env, "temperatures")
        .window(1)
        .select(col("temperature").gt(35.5))
        .project("location", "temperature")
        .join(scan(env, "contacts"))
        .assign("text", "Hot!")
        .invoke("sendMessage")
        .query()
    )


ROUTES = {
    "Q1": {
        "builder": q1_builder,
        "sal": lambda env: parse_query(
            "invoke[sendMessage, messenger](assign[text := 'Bonjour!']("
            "select[name != 'Carla'](contacts)))",
            env,
        ),
        "sql": lambda env: compile_sql(
            "SELECT name, address, text, messenger, sent FROM contacts "
            "SET text := 'Bonjour!' WHERE name != 'Carla' USING sendMessage",
            env,
        ),
    },
    "Q2": {
        "builder": q2_builder,
        "sal": lambda env: parse_query(
            "project[photo](invoke[takePhoto, camera](select[quality >= 5]("
            "invoke[checkPhoto, camera](select[area = 'office'](cameras)))))",
            env,
        ),
        "sql": lambda env: compile_sql(
            "SELECT photo FROM cameras WHERE area = 'office' "
            "USING checkPhoto, takePhoto HAVING quality >= 5",
            env,
        ),
        "rule": lambda env: compile_rule(
            "q2(photo) :- cameras(c, 'office', quality, _, photo), quality >= 5;",
            env,
        ),
    },
    "Q3": {
        "builder": q3_builder,
        "sal": lambda env: parse_query(
            "invoke[sendMessage, messenger](assign[text := 'Hot!'](join("
            "project[location, temperature](select[temperature > 35.5]("
            "window[1](temperatures))), contacts)))",
            env,
        ),
        "sql": lambda env: compile_sql(
            "SELECT location, temperature, name, address, text, messenger, sent "
            "FROM temperatures [1] NATURAL JOIN contacts SET text := 'Hot!' "
            "WHERE temperature > 35.5 USING sendMessage",
            env,
        ),
    },
}


def run_route(query_name, route):
    """Evaluate one route on a fresh paper environment: its tuples (as
    name→value sets, column order aside), its action set and how many
    messages the devices saw."""
    paper = build_paper_example()
    env = paper.environment
    instant = None
    if query_name == "Q3":
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        for at, temperature in HOT_READINGS.items():
            stream.insert([("sensor06", "office", temperature, at)], instant=at)
        instant = Q3_INSTANT
    query = ROUTES[query_name][route](env)
    result = query.evaluate(env, instant)
    tuples = {frozenset(row.items()) for row in result.relation.to_mappings()}
    return tuples, result.actions, len(paper.outbox)


@pytest.mark.parametrize(
    "query_name, route",
    [(q, r) for q, routes in ROUTES.items() for r in routes if r != "builder"],
)
def test_every_route_agrees_with_the_builder(query_name, route):
    expected = run_route(query_name, "builder")
    assert expected[0], "the differential needs a non-empty result"
    assert run_route(query_name, route) == expected


def test_the_active_queries_send_messages():
    """Q1 and Q3 exercise the action set, Q2 is passive."""
    assert len(run_route("Q1", "builder")[1]) == 2
    assert len(run_route("Q3", "builder")[1]) == 3
    assert len(run_route("Q2", "builder")[1]) == 0


def test_table_1_and_2_ddl_declares_the_paper_constants():
    tables = ExtendedTableManager(PervasiveEnvironment(), VirtualClock())
    tables.execute_ddl(TABLE1_DDL + TABLE2_DDL)
    env = tables.environment
    standard = {prototype.name: prototype for prototype in STANDARD_PROTOTYPES}
    declared = ("sendMessage", "checkPhoto", "takePhoto", "getTemperature")
    for name in declared:
        assert env.prototype(name) == standard[name]
    assert env.schema("contacts") == contacts_schema()
    assert env.schema("cameras") == cameras_schema()


@pytest.mark.parametrize(
    "module", [standard_prototypes, city_devices], ids=lambda m: m.__name__
)
def test_documented_prototype_lines_parse_to_the_constants(module):
    constants = {
        value.name: value for value in vars(module).values()
        if isinstance(value, Prototype)
    }
    lines = [
        line.strip() for line in module.__doc__.splitlines()
        if line.strip().startswith("PROTOTYPE")
    ]
    assert lines
    for line in lines:
        tables = ExtendedTableManager(PervasiveEnvironment(), VirtualClock())
        (prototype,) = tables.execute_ddl(line)
        assert prototype == constants[prototype.name], line
