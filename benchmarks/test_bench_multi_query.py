"""Experiment X6 — multi-query workloads: shared subplans + quiescence.

200 continuous queries over 20 independent zones; within each zone 80%
of the queries share a selection + join prefix, and each tick churns 5%
of the rows of *one* zone (round-robin), so ~190 queries are provably
quiescent at every instant.  Three configurations run the same script:

* ``naive`` — every query fully re-evaluated at every tick,
* ``private`` — the shared engine with one private registry per query
  (nothing to share against), every query ticked every instant,
* ``shared`` — one registry (structurally equivalent subplans run once)
  plus the quiescence-aware tick scheduler (unaffected queries carried
  forward in O(1)).

The shared configuration must beat the private-registry one by at
least 5× in tick throughput, and all three must agree on every query's
final result.  Results land in ``benchmarks/reports/multi_query.txt``
and, machine-readable, in ``BENCH_multi_query.json`` at the repository
root.

Set ``BENCH_SMOKE=1`` for the reduced CI configuration (lower bar).
"""

import json
import os
from time import perf_counter

from repro.algebra import col, scan
from repro.bench.reporting import Report
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedPlanRegistry
from repro.model.attributes import Attribute
from repro.model.environment import PervasiveEnvironment
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

ZONES = 4 if SMOKE else 20
QUERIES_PER_ZONE = 10  # 8 share a prefix, 2 are standalone → 80% sharing
ROWS_PER_ZONE = 40 if SMOKE else 120
GROUPS = 8
TICKS = 6 if SMOKE else 20
CHURN = 0.05  # of one zone's rows, per tick
MIN_SPEEDUP = 1.5 if SMOKE else 5.0

QUERIES = ZONES * QUERIES_PER_ZONE


def items_schema(zone):
    return ExtendedRelationSchema(
        f"items{zone}",
        [
            Attribute("item", DataType.STRING),
            Attribute("grp", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def groups_schema(zone):
    return ExtendedRelationSchema(
        f"groups{zone}",
        [
            Attribute("grp", DataType.STRING),
            Attribute("label", DataType.STRING),
        ],
    )


def item_row(zone, idx, version=0):
    return (
        f"item{zone}_{idx}",
        f"g{idx % GROUPS}",
        float((idx * 13 + version * 7) % 97),
    )


def zone_queries(env, zone):
    """The zone's query mix: 8 suffixes over one shared prefix + 2 solo."""
    prefix = (
        scan(env, f"items{zone}")
        .select(col("value").ge(10.0))
        .join(scan(env, f"groups{zone}"))
        .select(col("label").ne("label999"))
    )
    queries = {}
    for k in range(QUERIES_PER_ZONE - 2):
        queries[f"z{zone}q{k}"] = (
            prefix.select(col("value").lt(90.0 - k))
            .rename("label", "tag")
            .project("item", "tag")
            .query(f"z{zone}q{k}")
        )
    for k in range(2):
        queries[f"z{zone}s{k}"] = (
            scan(env, f"items{zone}")
            .select(col("value").ge(50.0 + 10 * k))
            .select(col("grp").ne("g999"))
            .rename("item", "name")
            .project("name")
            .query(f"z{zone}s{k}")
        )
    return queries


class Driver:
    """One configuration's environment, queries and churn script."""

    def __init__(self, config):
        self.config = config
        self.env = PervasiveEnvironment()
        self.relations = {}
        self.rows = {}
        for zone in range(ZONES):
            items = XDRelation(items_schema(zone))
            self.rows[zone] = {
                idx: item_row(zone, idx) for idx in range(ROWS_PER_ZONE)
            }
            items.insert(self.rows[zone].values(), instant=0)
            self.env.add_relation(items)
            self.relations[zone] = items
            groups = XDRelation(groups_schema(zone))
            groups.insert(
                [(f"g{g}", f"label{g}") for g in range(GROUPS)], instant=0
            )
            self.env.add_relation(groups)
        self.registry = (
            SharedPlanRegistry(self.env) if config == "shared" else None
        )
        self.scheduler = (
            TickScheduler(self.env) if config == "shared" else None
        )
        engine = "naive" if config == "naive" else "shared"
        self.queries = {}
        for zone in range(ZONES):
            for name, query in zone_queries(self.env, zone).items():
                cq = ContinuousQuery(
                    query, self.env, engine=engine, shared=self.registry
                )
                self.queries[name] = cq
                if self.scheduler is not None:
                    self.scheduler.register(name, cq)

    def churn(self, instant):
        """Rewrite 5% of one zone's rows; every other zone stays silent."""
        zone = (instant - 1) % ZONES
        items, rows = self.relations[zone], self.rows[zone]
        batch = max(1, int(ROWS_PER_ZONE * CHURN))
        start = (instant - 1) * batch
        for offset in range(batch):
            idx = (start + offset) % ROWS_PER_ZONE
            replacement = item_row(zone, idx, version=instant)
            if replacement != rows[idx]:
                items.delete([rows[idx]], instant=instant)
                items.insert([replacement], instant=instant)
                rows[idx] = replacement

    def tick(self, instant):
        """Advance every query one instant; returns evaluation seconds."""
        self.churn(instant)
        began = perf_counter()
        if self.scheduler is not None:
            affected = self.scheduler.plan(instant)
            for name, cq in self.queries.items():
                if name in affected:
                    cq.evaluate_at(instant)
                    self.scheduler.evaluated(name, True)
                else:
                    cq.carry_forward(instant)
                    self.scheduler.skipped(name)
        else:
            for cq in self.queries.values():
                cq.evaluate_at(instant)
        return perf_counter() - began


def test_bench_multi_query(benchmark):
    def run():
        drivers = {
            config: Driver(config)
            for config in ("naive", "private", "shared")
        }
        seconds = {config: 0.0 for config in drivers}
        for config, driver in drivers.items():
            driver.tick(1)  # warm-up: builds executor state / first result
            for instant in range(2, TICKS + 2):
                seconds[config] += driver.tick(instant)
        # All configurations must agree on every query, or the speedup
        # is meaningless.
        for name in drivers["naive"].queries:
            expected = drivers["naive"].queries[name].last_result.relation.tuples
            for config in ("private", "shared"):
                got = drivers[config].queries[name].last_result.relation.tuples
                assert got == expected, (config, name)
        return seconds, drivers["shared"]

    seconds, shared = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = seconds["private"] / seconds["shared"]
    naive_speedup = seconds["naive"] / seconds["shared"]
    assert speedup >= MIN_SPEEDUP, (
        f"shared configuration only {speedup:.1f}× faster than one private "
        f"registry per query ({QUERIES} queries, {ZONES} zones, {CHURN:.0%} churn)"
    )

    stats = shared.scheduler.stats
    payload = {
        "queries": QUERIES,
        "zones": ZONES,
        "rows_per_zone": ROWS_PER_ZONE,
        "prefix_sharing": 0.8,
        "churn": CHURN,
        "ticks": TICKS,
        "naive_seconds": round(seconds["naive"], 6),
        "private_seconds": round(seconds["private"], 6),
        "shared_seconds": round(seconds["shared"], 6),
        "speedup_vs_private": round(speedup, 2),
        "speedup_vs_naive": round(naive_speedup, 2),
        "scheduler_evaluations": stats["evaluations"],
        "scheduler_skips": stats["skips"],
        "registry_entries": len(shared.registry),
        "registry_refcount": shared.registry.total_refcount,
        "mode": "smoke" if SMOKE else "full",
    }
    if not SMOKE:  # the committed artifact records the full configuration
        root = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
        with open(os.path.join(root, "BENCH_multi_query.json"), "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    report = Report("multi_query")
    report.table(
        ["configuration", "total (s)", "per tick (ms)"],
        [
            [config, f"{total:.4f}", f"{total / TICKS * 1000:.2f}"]
            for config, total in seconds.items()
        ],
        title=(
            f"Multi-query tick cost: {QUERIES} queries, {ZONES} zones, "
            f"80% prefix sharing, {CHURN:.0%} churn, {TICKS} timed ticks"
        ),
    )
    report.add(f"Speedup (private / shared): {speedup:.1f}×")
    report.add(f"Speedup (naive / shared): {naive_speedup:.1f}×")
    report.add(
        f"Scheduler: {stats['evaluations']} evaluations, "
        f"{stats['skips']} skips; registry: {len(shared.registry)} entries, "
        f"refcount {shared.registry.total_refcount}"
    )
    report.emit()
