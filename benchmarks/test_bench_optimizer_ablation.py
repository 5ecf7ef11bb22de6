"""Experiment X2 — optimizer ablations for the design choices of
Section 3.3, Section 4.2 and Section 5.1 (see DESIGN.md §4).

Ablation 1 — σ-below-β pushdown: naive vs rewritten plan, service calls
and wall time, while the active-β case is verified to be left untouched.

Ablation 2 — "β only on newly inserted tuples": the continuous invocation
cache of Section 4.2 vs re-invoking every tuple at every instant.

Ablation 3 — synchronous vs asynchronous invocation (§5.1): end-to-end
alert latency as a function of the modeled service round-trip delay.
"""

import time

from repro.algebra import col, rewrite_fixpoint, scan
from repro.continuous.continuous_query import ContinuousQuery

from support import Report, surveillance_workload

#: The cache ablation's contacts: the §5.2 scenario's four plus four added.
CONTACTS = 8


def test_bench_x2_pushdown_ablation(benchmark):
    def ablation():
        scenario = surveillance_workload(100, rooms=10, with_queries=False)
        scenario.run(1)
        env = scenario.environment
        naive = (
            scan(env, "sensors")
            .invoke("getTemperature")
            .select(col("location").eq("room03"))
            .query()
        )
        optimized = rewrite_fixpoint(naive)
        registry = env.registry
        rows = []
        for label, query in (("naive", naive), ("pushed-down", optimized)):
            before = registry.invocation_count
            started = time.perf_counter()
            result = query.evaluate(env, 1)
            elapsed = time.perf_counter() - started
            rows.append(
                [label, registry.invocation_count - before,
                 f"{1000 * elapsed:.2f}", len(result.relation)]
            )
        return rows

    rows = benchmark.pedantic(ablation, rounds=3, iterations=1)
    naive_calls, optimized_calls = rows[0][1], rows[1][1]
    assert optimized_calls < naive_calls
    assert rows[0][3] == rows[1][3]  # identical results

    report = Report("x2_pushdown_ablation")
    report.table(
        ["plan", "β invocations", "latency (ms)", "result tuples"],
        rows,
        title="σ-below-β pushdown, 100 + 4 sensors / 10 + 3 rooms (passive β)",
    )
    report.emit()


def test_bench_x2_invocation_cache_ablation(benchmark):
    """Continuous refinement (Section 4.2): cached vs naive re-invocation.

    'Without' is emulated by re-evaluating one-shot (fresh context) at
    every instant; 'with' uses a ContinuousQuery's persistent context.
    """

    def ablation():
        rows = []
        for label in ("with-cache", "without-cache"):
            scenario = surveillance_workload(
                10, rooms=5, contacts=4, with_queries=False
            )
            env = scenario.environment
            query = (
                scan(env, "contacts")
                .assign("text", "ping")
                .invoke("sendMessage")
                .query()
            )
            registry = env.registry
            scenario.run(1)
            before = registry.invocation_count
            if label == "with-cache":
                continuous = ContinuousQuery(query, env)
                for _ in range(20):
                    scenario.run(1)
                    continuous.evaluate_at(scenario.clock.now)
            else:
                for _ in range(20):
                    scenario.run(1)
                    query.evaluate(env, scenario.clock.now)
            sensor_calls = 20 * len(scenario.sensors)  # the stream feeder's, both modes
            rows.append([label, registry.invocation_count - before - sensor_calls])
        return rows

    rows = benchmark.pedantic(ablation, rounds=3, iterations=1)
    cached, uncached = rows[0][1], rows[1][1]
    assert cached == CONTACTS  # one sendMessage per contact, ever
    assert uncached == CONTACTS * 20  # every contact, every instant

    report = Report("x2_invocation_cache_ablation")
    report.table(
        ["mode", f"sendMessage invocations over 20 instants ({CONTACTS} contacts)"],
        rows,
        title='Section 4.2 refinement: "β invoked only for newly inserted tuples"',
    )
    report.add(
        "Without the cache, the continuous query would re-send every alert\n"
        "at every instant — 20x the messages, and 20x the active side effects."
    )
    report.emit()


def test_bench_x2_async_latency(benchmark):
    """End-to-end alert latency vs invocation delay (§5.1 asynchrony).

    A threshold-crossing reading inserted at instant τ triggers a message
    at τ + delay; the measured latency must track the modeled round-trip.
    """
    from repro.continuous.xdrelation import XDRelation
    from repro.devices.paper_example import build_paper_example
    from repro.devices.scenario import temperatures_schema

    def sweep():
        rows = []
        for delay in (0, 1, 3):
            paper = build_paper_example()
            env = paper.environment
            stream = XDRelation(temperatures_schema(), infinite=True)
            env.add_relation(stream)
            # The window must out-live the round-trip: an in-flight request
            # whose operand tuple expires is dropped (the algebra's result
            # at τ only extends tuples present at τ), so W[delay+1] keeps
            # the hot reading visible until its response lands.
            query = (
                scan(env, "temperatures")
                .window(delay + 1)
                .select(col("temperature").gt(35.5))
                .join(scan(env, "contacts").select(col("name").eq("Carla")))
                .assign("text", "Hot!")
                .invoke("sendMessage", delay=delay)
                .query()
            )
            continuous = ContinuousQuery(query, env)
            hot_instant = 5
            latencies = []
            for instant in range(1, 15):
                temperature = 40.0 if instant == hot_instant else 20.0
                stream.insert(
                    [("sensor06", "office", temperature, instant)], instant=instant
                )
                continuous.evaluate_at(instant)
                for message in paper.outbox.messages[len(latencies):]:
                    latencies.append(message.instant - hot_instant)
            assert latencies, f"no alert for delay={delay}"
            rows.append([delay, latencies[0], len(paper.outbox)])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert [r[1] for r in rows] == [0, 1, 3]  # latency == modeled delay
    assert all(r[2] == 1 for r in rows)  # exactly one alert per reading

    report = Report("x2_async_latency")
    report.table(
        ["invocation delay (instants)", "alert latency (instants)", "messages"],
        rows,
        title="Synchronous vs asynchronous invocation (§5.1)",
    )
    report.emit()
