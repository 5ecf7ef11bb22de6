"""Logical optimization of service-oriented queries (Section 3.3).

Shows the optimizer — the Table 5 pushdown rules run to a fixed point —
on the canonical pervasive-query shape: an expensive passive invocation
with a selection on top.  Pushing the selection below the invocation (legal because the
binding pattern is passive) cuts the number of service calls; the same
move on an *active* invocation is refused because it would change the
action set (the Q1/Q1' trap).

Run:  python examples/optimizer_demo.py
"""

from repro.algebra import (
    RewriteTrace,
    check_equivalence,
    col,
    rewrite_fixpoint,
    scan,
)
from repro.devices.scenario import build_temperature_surveillance
from repro.lang import explain


def measure_invocations(query, env):
    registry = env.registry
    before = registry.invocation_count
    result = query.evaluate(env, 1)
    return registry.invocation_count - before, result


def main():
    # The §5.2 scenario's 4 sensors plus 40 more over rooms room00..room07.
    scenario = build_temperature_surveillance(with_queries=False)
    for i in range(40):
        scenario.add_sensor(f"sensor{i:03d}", f"room{i % 8:02d}")
    scenario.run(1)  # let discovery fill the sensors table
    env = scenario.environment

    naive = (
        scan(env, "sensors")
        .invoke("getTemperature")
        .select(col("location").eq("room03"))
        .query("naive")
    )
    print("=== Naive plan: invoke all 44 sensors, then filter ===")
    print(explain(naive))

    trace = RewriteTrace()
    optimized = rewrite_fixpoint(naive, trace=trace)
    print("\n=== After heuristic rewriting (Table 5 pushdown) ===")
    print(explain(optimized))
    print(f"rules fired: {trace.steps}")

    calls_naive, r1 = measure_invocations(naive, env)
    calls_opt, r2 = measure_invocations(optimized, env)
    print(f"\nservice calls: naive={calls_naive}  optimized={calls_opt}  "
          f"saving={calls_naive - calls_opt} ({100 * (1 - calls_opt / calls_naive):.0f}%)")
    report = check_equivalence(naive, optimized, env, instant=1)
    print(f"Definition 9 equivalence holds: {report.equivalent}")
    assert r1.relation == r2.relation

    print("\n=== Active invocations are never pushed through ===")
    active_query = (
        scan(env, "contacts")
        .assign("text", "Hot!")
        .invoke("sendMessage")
        .select(col("name").ne("Carla"))
        .query("active")
    )
    rewritten = rewrite_fixpoint(active_query)
    print(explain(rewritten))
    print("(the selection stays above the sendMessage invocation: moving it"
          " would change the action set)")


if __name__ == "__main__":
    main()
