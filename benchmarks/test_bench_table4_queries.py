"""Experiment T4 + E6 — Table 4 queries and Example 6 action sets.

Runs all six Table 4 queries (Q1, Q1', Q2, Q2' one-shot; Q3, Q4
continuous) against the paper's environment, printing results and action
sets; the one-shot ones are also timed end-to-end.
"""

import pytest

from repro.algebra import Query, Selection, col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import temperatures_schema

from support import Report


def q1(env):
    return (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .query("Q1")
    )


def q1_prime(env):
    inner = (
        scan(env, "contacts").assign("text", "Bonjour!").invoke("sendMessage").node
    )
    return Query(Selection(inner, col("name").ne("Carla")), "Q1'")


def q2(env):
    return (
        scan(env, "cameras")
        .select(col("area").eq("office"))
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .project("photo")
        .query("Q2")
    )


def q2_prime(env):
    return (
        scan(env, "cameras")
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .select(col("area").eq("office"))
        .project("photo")
        .query("Q2'")
    )


def with_temperature_stream(env):
    stream = XDRelation(temperatures_schema(), infinite=True)
    env.add_relation(stream)
    return stream


def q3(env):
    """When a temperature exceeds 35.5°C, message the contacts 'Hot!'."""
    return (
        scan(env, "temperatures")
        .window(1)
        .select(col("temperature").gt(35.5))
        .project("location", "temperature")
        .join(scan(env, "contacts"))
        .assign("text", "Hot!")
        .invoke("sendMessage")
        .query("Q3")
    )


def q4(env):
    """When a temperature drops below 12.0°C, photograph the area."""
    return (
        scan(env, "temperatures")
        .window(1)
        .select(col("temperature").lt(12.0))
        .rename("location", "area")
        .join(scan(env, "cameras"))
        .invoke("checkPhoto")
        .invoke("takePhoto")
        .project("area", "photo", "at")
        .stream("insertion")
        .query("Q4")
    )


@pytest.mark.parametrize("make", [q1, q1_prime, q2, q2_prime], ids=lambda f: f.__name__)
def test_bench_table4_one_shot(benchmark, make):
    def run():
        paper = build_paper_example()
        query = make(paper.environment)
        return query.evaluate(paper.environment), paper

    (result, paper) = benchmark(run)
    assert result.relation is not None


def test_bench_example6_action_sets(benchmark):
    def run():
        paper = build_paper_example()
        r1 = q1(paper.environment).evaluate(paper.environment)
        paper2 = build_paper_example()
        r1p = q1_prime(paper2.environment).evaluate(paper2.environment)
        return r1, r1p

    r1, r1p = benchmark(run)
    assert len(r1.actions) == 2
    assert len(r1p.actions) == 3

    report = Report("table4_queries")
    paper = build_paper_example()
    env = paper.environment
    for make in (q1, q2):
        query = make(env)
        result = query.evaluate(env)
        report.add(
            f"{query.name}: {query.render()}\n{result.relation.to_table()}"
        )
    report.add(
        "Action set of Q1 (Example 6):\n" + r1.actions.describe()
    )
    report.add(
        "Action set of Q1' (Example 6): one extra message to Carla\n"
        + r1p.actions.describe()
    )
    report.emit()


def test_bench_table4_continuous(benchmark):
    """Q3 and Q4 over a scripted temperature stream."""

    def run():
        paper = build_paper_example()
        env = paper.environment
        stream = with_temperature_stream(env)
        cq3 = ContinuousQuery(q3(env), env)
        cq4 = ContinuousQuery(q4(env), env)
        for instant in range(1, 21):
            # Scripted readings: office heats up mid-run, roof goes cold.
            office = 30.0 + instant if instant > 5 else 22.0
            roof = 15.0 - instant if instant > 5 else 15.0
            stream.insert(
                [
                    ("sensor06", "office", office, instant),
                    ("sensor22", "roof", roof, instant),
                ],
                instant=instant,
            )
            cq3.evaluate_at(instant)
            cq4.evaluate_at(instant)
        return paper, cq3, cq4

    paper, cq3, cq4 = benchmark(run)
    # Q3: alerts fired once the office passed 35.5 (one reading per hot
    # instant × 3 contacts); the cumulative action *set* collapses to one
    # action per (service, address) pair because text is constant.
    assert len(paper.outbox) >= 3
    assert len(cq3.action_log) == len(paper.outbox)
    assert len(cq3.actions) == 3
    # Q4: the roof went below 12.0 from instant 9 on; webcam07 watches it.
    assert len(cq4.emitted) > 0
    schema = cq4.query.schema
    for _, values in cq4.emitted:
        assert schema.mapping_from_tuple(values)["area"] == "roof"
