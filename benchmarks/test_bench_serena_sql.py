"""Experiment X3 — the language layer: Serena SQL and SAL throughput.

The paper's languages (the Serena DDL of Tables 1–2, the Serena Algebra
Language of §5.1, and the Serena SQL it mentions in §1.1) all front the
same algebra; this bench measures parse+compile throughput and checks that
the three routes to the same query produce identical plans and results.
"""

from repro.algebra import col, scan
from repro.devices.paper_example import build_paper_example
from repro.lang import compile_sql, parse_query, to_sal

from support import Report

SQL_Q1 = (
    "SELECT name, address, text, messenger, sent FROM contacts "
    "SET text := 'Bonjour!' WHERE name != 'Carla' USING sendMessage"
)

SAL_Q1 = (
    "invoke[sendMessage, messenger](assign[text := 'Bonjour!']("
    "select[name != 'Carla'](contacts)))"
)


def test_bench_x3_sql_compile(benchmark):
    paper = build_paper_example()
    env = paper.environment
    query = benchmark(compile_sql, SQL_Q1, env)
    assert query.schema.names == ("name", "address", "text", "messenger", "sent")


def test_bench_x3_sal_parse(benchmark):
    paper = build_paper_example()
    env = paper.environment
    query = benchmark(parse_query, SAL_Q1, env)
    assert query.root.schema.real_names >= {"text", "sent"}


def test_bench_x3_three_routes_one_query(benchmark):
    """Builder, SAL and SQL all express Q1; results and action sets match."""

    def all_routes():
        results = []
        for route in ("builder", "sal", "sql"):
            paper = build_paper_example()
            env = paper.environment
            if route == "builder":
                query = (
                    scan(env, "contacts")
                    .select(col("name").ne("Carla"))
                    .assign("text", "Bonjour!")
                    .invoke("sendMessage")
                    .query()
                )
            elif route == "sal":
                query = parse_query(SAL_Q1, env)
            else:
                query = compile_sql(SQL_Q1, env)
            result = query.evaluate(env)
            results.append((route, result, len(paper.outbox), to_sal(query)))
        return results

    results = benchmark(all_routes)
    relations = {route: r.relation for route, r, _, _ in results}
    actions = {route: r.actions for route, r, _, _ in results}
    # SQL adds a final (identity) projection; tuple content must agree.
    base = {
        frozenset(m.items()) for m in relations["builder"].to_mappings()
    }
    for route in ("sal", "sql"):
        assert {
            frozenset(m.items()) for m in relations[route].to_mappings()
        } == base, route
    assert actions["builder"] == actions["sal"] == actions["sql"]
    assert all(sent == 2 for _, _, sent, _ in results)

    report = Report("x3_language_layer")
    report.table(
        ["route", "plan (SAL rendering)", "messages sent"],
        [[route, text, sent] for route, _, sent, text in results],
        title="Q1 through the three front-ends",
    )
    report.emit()
