"""Sharded federation benchmark: devices × shards × queries sweep.

A grid workload on the federated PEMS: ``readings(device, sector, value)``
partitioned by ``sector`` across the zone shards, with a bank of
zone-pinned continuous selections (``sector = 'sector-k'``).  Partition
pruning routes each pinned query's scattered chain to the single zone
owning its sector, so per-query work shrinks with the shard count —
that, not OS parallelism, is what buys near-linear steady-state scaling
on this box (the committed numbers come from a 1-CPU container under the
GIL; ``cpus`` in the JSON records the truth).

Measured, into ``BENCH_sharding.json`` / ``benchmarks/reports/sharding.txt``:

* steady-state seconds per tick for shards ∈ {1, 2, 4, 8} (lockstep),
* lockstep overhead vs the single-node ``shared`` engine on the same
  workload (1-zone federation — the cost of the federation machinery).

Set ``BENCH_SMOKE=1`` for the reduced CI configuration.
"""

import json
import os
import platform
from time import perf_counter

from repro.algebra import col, scan
from repro.bench.reporting import Report
from repro.fed import FederatedPEMS
from repro.model.attributes import Attribute
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

DEVICES = 256 if SMOKE else 4096
SECTORS = 32
QUERIES = 16 if SMOKE else 32
TICKS = 4 if SMOKE else 8
SHARD_COUNTS = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
CHURN_BATCH = DEVICES // 2  # half the grid rewritten per tick
MIN_SCALING = 1.1 if SMOKE else 3.0  # speedup at max shards vs 1 shard
MAX_OVERHEAD = 0.35 if SMOKE else 0.10  # 1-zone lockstep vs shared


def readings_schema():
    return ExtendedRelationSchema(
        "readings",
        [
            Attribute("device", DataType.SERVICE),
            Attribute("sector", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def reading(idx, version=0):
    return (
        f"device-{idx}",
        f"sector-{idx % SECTORS}",
        float((idx * 13 + version * 7) % 97),
    )


class Driver:
    """One configuration: a PEMS, the grid rows and the pinned queries."""

    def __init__(self, pems):
        self.pems = pems
        pems.tables.create_relation(readings_schema())
        self.relation = pems.tables.relation("readings")
        self.rows = {idx: reading(idx) for idx in range(DEVICES)}
        self.relation.insert(self.rows.values(), instant=0)
        self.queries = {}
        for q in range(QUERIES):
            sector = f"sector-{(q * SECTORS) // QUERIES}"
            self.queries[f"pin{q}"] = pems.queries.register_continuous(
                scan(pems.environment, "readings")
                .select(col("sector").eq(sector))
                .select(col("value").ge(90.0))
                .project("device", "value")
                .query(),
                name=f"pin{q}",
            )

    def churn(self, instant):
        start = (instant - 1) * CHURN_BATCH
        for offset in range(CHURN_BATCH):
            idx = (start + offset) % DEVICES
            replacement = reading(idx, version=instant)
            if replacement != self.rows[idx]:
                self.relation.delete([self.rows[idx]], instant=instant)
                self.relation.insert([replacement], instant=instant)
                self.rows[idx] = replacement

    def run(self):
        """Warm tick, then TICKS churned ticks; returns the seconds spent
        *inside* the ticks — churn writes (validation + hash routing) are
        per-write costs paid outside the engine and excluded."""
        self.pems.tick()
        seconds = 0.0
        for _ in range(TICKS):
            self.churn(self.pems.clock.now + 1)
            began = perf_counter()
            self.pems.tick()
            seconds += perf_counter() - began
        self.results = {
            name: cq.last_result.relation.tuples
            for name, cq in self.queries.items()
        }
        shutdown = getattr(self.pems, "shutdown", None)
        if shutdown is not None:
            shutdown()
        return seconds


def federated(shards):
    return Driver(
        FederatedPEMS(zones=shards, partition_by={"readings": "sector"})
    )


def test_bench_sharding(benchmark):
    def run():
        seconds = {}
        results = None
        for shards in SHARD_COUNTS:
            driver = federated(shards)
            seconds[shards] = driver.run()
            if results is None:
                results = driver.results
            else:  # every shard count computes the same answers
                assert driver.results == results
        shared = Driver(PEMS(engine="shared"))
        shared_seconds = shared.run()
        assert shared.results == results
        return seconds, shared_seconds

    seconds, shared_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    top = max(SHARD_COUNTS)
    scaling = seconds[1] / seconds[top]
    overhead = seconds[1] / shared_seconds - 1.0
    assert scaling >= MIN_SCALING, (
        f"sharding to {top} zones only {scaling:.2f}× faster than 1 zone "
        f"({DEVICES} devices, {QUERIES} pinned queries, {TICKS} ticks)"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"1-zone lockstep federation {overhead:.0%} slower than the shared "
        f"engine (bound {MAX_OVERHEAD:.0%})"
    )

    payload = {
        "devices": DEVICES,
        "sectors": SECTORS,
        "queries": QUERIES,
        "ticks": TICKS,
        "churn_batch": CHURN_BATCH,
        "shard_seconds": {str(n): round(s, 6) for n, s in seconds.items()},
        "scaling_at_max_shards": round(scaling, 2),
        "shared_seconds": round(shared_seconds, 6),
        "lockstep_overhead_vs_shared": round(overhead, 4),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "mode": "smoke" if SMOKE else "full",
    }
    if not SMOKE:  # the committed artifact records the full configuration
        root = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
        with open(os.path.join(root, "BENCH_sharding.json"), "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    report = Report("sharding")
    report.table(
        ["shards", "total (s)", "per tick (ms)"],
        [
            [str(n), f"{s:.4f}", f"{s / TICKS * 1000:.2f}"]
            for n, s in seconds.items()
        ],
        title=(
            f"Sharded lockstep tick cost: {DEVICES} devices, {QUERIES} "
            f"pinned queries, {TICKS} timed ticks"
        ),
    )
    report.add(f"Scaling 1→{top} shards: {scaling:.2f}×")
    report.add(
        f"Shared engine baseline: {shared_seconds:.4f}s "
        f"(1-zone lockstep overhead {overhead:+.1%})"
    )
    report.emit()
