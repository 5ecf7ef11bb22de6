"""Experiment X1 — the scalability study the paper defers.

"Further experiments need to be conducted to assess the scalability and
the robustness of our proposal... no benchmark can be used for that
purpose" (Section 5.2).  This is that benchmark: throughput (ticks/s) and
per-tick latency of a full PEMS cycle as the environment scales in

* number of sensors (stream rate ∝ sensors),
* number of contacts/managers (join fan-out of the alert query),
* fraction of hot sensors (alert/message volume).
"""

import statistics
from time import perf_counter

from support import Report, surveillance_workload

INSTANTS = 15


def run_point(num_sensors=20, num_contacts=5, hot_fraction=0.2):
    """Tick the scaled scenario INSTANTS times after a discovery warm-up;
    the counts are what those ticks added."""
    scenario = surveillance_workload(
        num_sensors,
        rooms=max(2, num_sensors // 5),
        contacts=num_contacts,
        hot_fraction=hot_fraction,
    )
    scenario.run(1)  # discovery warm-up
    registry, queries = scenario.environment.registry, scenario.queries.values()
    invocations, messages = registry.invocation_count, len(scenario.outbox)
    actions = sum(len(cq.action_log) for cq in queries)
    ticks = []
    for _ in range(INSTANTS):
        began = perf_counter()
        scenario.pems.tick()
        ticks.append(perf_counter() - began)
    ticks.sort()
    return {
        "ticks_per_s": INSTANTS / sum(ticks),
        "mean_ms": 1000 * statistics.fmean(ticks),
        "p95_ms": 1000 * ticks[int(0.95 * INSTANTS)],
        "invocations": registry.invocation_count - invocations,
        "messages": len(scenario.outbox) - messages,
        "actions": sum(len(cq.action_log) for cq in queries) - actions,
    }


def test_bench_x1_sensor_sweep(benchmark):
    def sweep():
        rows = []
        for sensors in (5, 20, 80, 200):
            stats = run_point(num_sensors=sensors)
            rows.append(
                [
                    sensors,
                    f"{stats['ticks_per_s']:,.0f}",
                    f"{stats['mean_ms']:.2f}",
                    f"{stats['p95_ms']:.2f}",
                    stats["invocations"],
                    stats["messages"],
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Throughput must degrade monotonically-ish with scale, never collapse.
    assert float(rows[0][1].replace(",", "")) > float(rows[-1][1].replace(",", ""))

    report = Report("x1_sensor_sweep")
    report.table(
        ["#sensors", "ticks/s", "mean tick (ms)", "p95 tick (ms)",
         "invocations", "messages"],
        rows,
        title=f"Scalability vs sensor count ({INSTANTS} instants per point)",
    )
    report.emit()


def test_bench_x1_contact_sweep(benchmark):
    def sweep():
        rows = []
        for contacts in (2, 8, 32, 128):
            stats = run_point(num_sensors=40, num_contacts=contacts)
            rows.append(
                [
                    contacts,
                    f"{stats['ticks_per_s']:,.0f}",
                    f"{stats['mean_ms']:.2f}",
                    stats["messages"],
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report = Report("x1_contact_sweep")
    report.table(
        ["#contacts", "ticks/s", "mean tick (ms)", "messages"],
        rows,
        title="Scalability vs contact-list size (40 sensors)",
    )
    report.emit()


def test_bench_x1_load_sweep(benchmark):
    def sweep():
        rows = []
        for hot in (0.0, 0.25, 0.5, 1.0):
            stats = run_point(num_sensors=40, hot_fraction=hot)
            rows.append(
                [
                    f"{hot:.0%}",
                    f"{stats['ticks_per_s']:,.0f}",
                    stats["actions"],
                    stats["messages"],
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # More hot sensors → more alert work (messages grow monotonically).
    message_counts = [r[3] for r in rows]
    assert message_counts == sorted(message_counts)
    assert message_counts[0] == 0

    report = Report("x1_load_sweep")
    report.table(
        ["hot sensors", "ticks/s", "actions", "messages"],
        rows,
        title="Alert volume vs fraction of over-threshold sensors (40 sensors)",
    )
    report.emit()
