"""Experiment T5 / E7 — Table 5 rewriting rules and query equivalence.

Validates every rewriting rule against Definition 9 on randomized
environments, reproduces Example 7's verdicts (Q1 ≢ Q1', Q2 ≡ Q2'), and
measures what the rules buy: passive service invocations saved by the
selection-below-invocation pushdown as selectivity varies.
"""

from repro.algebra import Query, Selection, check_equivalence, col, scan
from repro.algebra.rewriting import (
    DEFAULT_RULES,
    PUSHDOWN_RULES,
    apply_everywhere,
    rewrite_fixpoint,
)
from repro.devices.paper_example import build_paper_example

from support import Report, surveillance_workload
from tests.environments import random_environment


def probe_plans(env):
    """Plans collectively exercising every rewrite rule but
    ``selection_below_projection``, which the property tests check."""
    return [
        # merge/push selections, projection/selection vs passive β
        scan(env, "items")
        .invoke("getScore")
        .select(col("category").ne("beta"))
        .select(col("size").lt(40))
        .project("item", "category", "size", "score")
        .query(),
        # assignment rules (α vs σ, π) + projection cascade
        scan(env, "items")
        .assign("done", True)
        .select(col("category").eq("alpha"))
        .project("item", "category", "size", "done")
        .project("item", "done")
        .query(),
        # join rules: σ/α/β pushed into the owning operand
        scan(env, "items")
        .invoke("getScore")
        .join(scan(env, "categories"))
        .select(col("priority").ge(2))
        .query(),
        scan(env, "items")
        .join(scan(env, "categories"))
        .assign("done", True)
        .query(),
        # reverse directions: α/β directly over σ; π directly over α/β
        scan(env, "items")
        .select(col("size").ge(10))
        .invoke("getScore")
        .project("item", "category", "score")
        .query(),
        scan(env, "items")
        .select(col("category").ne("gamma"))
        .assign("done", False)
        .project("item", "done")
        .query(),
        # passive β applied on top of a join (pushes into the owner side)
        scan(env, "items")
        .join(scan(env, "categories"))
        .invoke("getScore")
        .query(),
    ]


def validate_rules_on_random_envs(seeds=range(4)):
    """Apply every rule at every position of every probe plan on
    randomized environments; returns (rule name → validated applications)."""
    validated: dict[str, int] = {}
    for seed in seeds:
        handle = random_environment(seed)
        env = handle.environment
        for probe in probe_plans(env):
            for rule in DEFAULT_RULES:
                for root in apply_everywhere(probe.root, rule):
                    report = check_equivalence(probe, Query(root), env, instant=seed)
                    assert report.equivalent, rule.name
                    validated[rule.name] = validated.get(rule.name, 0) + 1
    return validated


def test_bench_table5_rule_validation(benchmark):
    validated = benchmark(validate_rules_on_random_envs)
    assert validated  # at least some rules fired
    report = Report("table5_rewriting_rules")
    report.table(
        ["rule", "validated applications (4 random envs)"],
        sorted(validated.items()),
        title="Every application preserved Definition 9 equivalence",
    )
    report.emit()


def test_bench_example7_verdicts(benchmark):
    def verdicts():
        paper = build_paper_example()
        env = paper.environment
        q1 = (
            scan(env, "contacts")
            .select(col("name").ne("Carla"))
            .assign("text", "Bonjour!")
            .invoke("sendMessage")
            .query("Q1")
        )
        q1p = Query(
            Selection(
                scan(env, "contacts")
                .assign("text", "Bonjour!")
                .invoke("sendMessage")
                .node,
                col("name").ne("Carla"),
            ),
            "Q1'",
        )
        q2 = (
            scan(env, "cameras")
            .select(col("area").eq("office"))
            .invoke("checkPhoto")
            .select(col("quality").ge(5))
            .invoke("takePhoto")
            .project("photo")
            .query("Q2")
        )
        q2p = (
            scan(env, "cameras")
            .invoke("checkPhoto")
            .select(col("quality").ge(5))
            .invoke("takePhoto")
            .select(col("area").eq("office"))
            .project("photo")
            .query("Q2'")
        )
        return (
            check_equivalence(q1, q1p, env),
            check_equivalence(q2, q2p, env),
        )

    r1, r2 = benchmark(verdicts)
    assert not r1.equivalent and r1.same_result and not r1.same_actions
    assert r2.equivalent

    report = Report("example7_equivalence")
    report.table(
        ["pair", "same result", "same actions", "equivalent (Def. 9)", "paper verdict"],
        [
            ["Q1 vs Q1'", r1.same_result, r1.same_actions, r1.equivalent, "NOT equivalent"],
            ["Q2 vs Q2'", r2.same_result, r2.same_actions, r2.equivalent, "equivalent"],
        ],
        title="Example 7 verdicts",
    )
    report.emit()


def test_bench_table5_invocation_savings(benchmark):
    """Invocations saved by σ-below-β pushdown vs selectivity."""

    def sweep():
        rows = []
        for selected_rooms in (1, 2, 4, 8):
            scenario = surveillance_workload(64, rooms=8, with_queries=False)
            scenario.run(1)
            env = scenario.environment
            formula = col("location").eq("room00")
            for r in range(1, selected_rooms):
                formula = formula | col("location").eq(f"room0{r}")
            naive = (
                scan(env, "sensors").invoke("getTemperature").select(formula).query()
            )
            optimized = rewrite_fixpoint(naive, PUSHDOWN_RULES)
            registry = env.registry
            before = registry.invocation_count
            naive.evaluate(env, 1)
            naive_calls = registry.invocation_count - before
            before = registry.invocation_count
            optimized.evaluate(env, 1)
            optimized_calls = registry.invocation_count - before
            rows.append(
                [
                    f"{selected_rooms}/8",
                    naive_calls,
                    optimized_calls,
                    f"{100 * (1 - optimized_calls / naive_calls):.0f}%",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=3, iterations=1)
    # Savings shrink as selectivity grows but never go negative.
    assert all(int(r[1]) >= int(r[2]) for r in rows)

    report = Report("table5_invocation_savings")
    report.table(
        ["rooms selected", "β calls (naive)", "β calls (pushed σ)", "saved"],
        rows,
        title="σ-below-β pushdown on 64 + 4 sensors over 8 + 3 rooms",
    )
    report.emit()
