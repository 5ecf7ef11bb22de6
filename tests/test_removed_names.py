"""Guard: the engine names, classes and knobs folded into the one
physical engine — and the parked sharded federation's, the server's
per-subscriber fan-out hooks, the feedback re-optimizer's plan-swap
and per-tick costing surface, the legacy measurement spine with the
hooks only it read, the cost-based search with its cost model and
statistics, the per-tick journal probes and journal read cache a
stream window needed while it had a scan under it, and the invocation
and query knobs no caller set (the substitution policy, the retry
backoff, the per-tick attempt cap, query history, the per-query
engine override and the quarantine backoff keyword), the core ERM's
test-only invocation queue, the sorted-mapping invocation memo key and
β/β∞'s error-policy option with the degrade mode and the partial-advance
recovery only it needed, the observability modes with the span tracer
and the mode branches only they needed, the substitution rule kinds
other than the one typed-cover rule, the naive-subtree lowering
fallback, the literal leaf with the second lowering walk (only a
registry's ``acquire`` builds executors), the clock's tick listeners
(``PEMS.tick`` calls the phases of an instant itself), the continuous
query's result listeners and the temperature-only stream feeder, the
front ends' private copies of the shared token readers (literal, name
list, assignment value, comparison atom) and the API nothing called (the
second EXPLAIN renderer ``Operator.tree``, ``XRelation.replace_tuples``,
``real_relation_schema``, ``AlertLog.for_zone`` and the discovery row
builder) — must not creep back into code, docs, examples, scripts or CI.

There are two engines (``naive`` and ``shared``), one executor table,
one optimizer (the §3.3 pushdown fixpoint) and one way to build a PEMS.  Prose may still call the executors
*incremental* or mention the *federation* — only the identifiers and
string literals below are banned.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCANNED = (
    "src",
    "docs",
    "examples",
    "scripts",
    "README.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

BANNED = re.compile(
    r"""IncrementalEngine
      | ["'`]incremental["'`]
      | federated-threads
      | _advance_threads
      | parallelism\s*=\s*["']threads["']
      | ColumnarDelta
      | ValuePool
      | ColumnarExecutor
      | repro\.exec\.vectorized
      | repro\.exec\.columnar
      | COLUMNAR_
      | lowerings_for
      | backend\s*=
      | ["']columnar["']
      | FederatedPEMS
      | repro\.fed
      | federated-processes
      | ["'`]federated["'`]
      | SCENARIO_ENGINES
      | partition_by
      | shards\s*=
      | \.shards
      | explain_federated
      | acquire_subtree
      | insert_validated
      | sync_metrics
      | _delta_message
      | FeedbackReoptimizer
      | enable_reoptimization
      | repro\.exec\.reoptimizer
      | swap_plan
      | swappable
      | reoptimizations_total
      | \.tick_cost\(
      | delta_cardinality
      | UNSUBSTITUTABLE_RISK_PREMIUM
      | substitutable\s*=
      | repro\.bench
      | measure_run
      | RunStats
      | build_surveillance_workload
      | tick_samples
      | tick_sample_capacity
      | reset_invocation_count
      | bind_observability
      | BENCH_SMOKE
      | BENCH_\w+\.json
      | check_bench_json
      | CostModel
      | PlanCost
      | OptimizationResult
      | Optimizer\(
      | collect_statistics
      | EnvironmentStatistics
      | RelationStatistics
      | repro\.algebra\.(cost|statistics|optimizer)
      | optimize_heuristic
      | _apply_everywhere
      | plan_budget
      | supported_operator
      | lowering_summary
      | journal_chunks
      | journal_cache
      | _detect_journal
      | _journal_mode
      | SubstitutionPolicy
      | latency_aware
      | latency_decile
      | max_failures_per_tick
      | _TickFailures
      | attempt-cap
      | keep_history
      | backoff\s*=
      | invoke_async
      | frozen_inputs
      | on_error
      | _ERROR_POLICIES
      | _unflushed
      | ["'`]degrade["'`]
      | OBSERVE_MODES
      | TickTracer
      | NullTracer
      | repro\.obs\.trace
      | metrics_on
      | tracing_on
      | Observability\.coerce
      | Observability\.disabled
      | _trace_deltas
      | _tick_queries
      | observe\s*=\s*["']
      | CompositionStep
      | composed_of
      | RULE_KINDS
      | _KIND_RANK
      | \.equivalent_to\(
      | target_references
      | FallbackExec
      | BaseRelation
      | from\s+repro\.exec(\.lowering)?\s+import\s+[^#]*\blower\b
      | on_tick
      | remove_listener
      | iter_ticks
      | clock\.run\(
      | _run_sources
      | SensorStreamFeeder
      | on_result
      | _parse_literal
      | _parse_name_list
      | _Params
      | _parse_assign_value
      | ComparisonAtom
      | _comparison_formula
      | replace_tuples
      | real_relation_schema
      | for_zone
      | row_builder
      | \.tree\(
    """,
    re.VERBOSE,
)


def scanned_files():
    for entry in SCANNED:
        path = ROOT / entry
        if path.is_file():
            yield path
        else:
            yield from (
                p
                for p in sorted(path.rglob("*"))
                if p.suffix in {".py", ".md", ".yml", ".toml", ".serena"}
            )


def test_removed_engine_names_do_not_reappear():
    offenders = []
    for path in scanned_files():
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if BANNED.search(line):
                offenders.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_engine_module_is_gone():
    for module in ("engine", "vectorized", "columnar", "reoptimizer"):
        assert not (ROOT / "src" / "repro" / "exec" / f"{module}.py").exists()
    assert not (ROOT / "src" / "repro" / "fed").exists()


def test_legacy_measurement_spine_is_gone():
    """The perf artifacts the e2e benchmark replaced (EXPERIMENTS.md X13)."""
    assert not (ROOT / "src" / "repro" / "bench").exists()
    assert not (ROOT / "scripts" / "check_bench_json.py").exists()
    for name in ("tick_cost", "multi_query", "fault_tolerance", "substitution",
                 "observability", "server", "city"):
        assert not (ROOT / "benchmarks" / f"test_bench_{name}.py").exists()


def test_cost_based_optimizer_is_gone():
    """The search, cost model and statistics (EXPERIMENTS.md X14)."""
    for module in ("optimizer", "cost", "statistics"):
        assert not (ROOT / "src" / "repro" / "algebra" / f"{module}.py").exists()


def test_span_tracer_is_gone():
    """One observability mode: metrics always record (EXPERIMENTS.md X19)."""
    assert not (ROOT / "src" / "repro" / "obs" / "trace.py").exists()
