"""Experiment X5 — steady-state tick cost: delta-driven (shared) vs naive
engine.

The point of the physical layer (:mod:`repro.exec`): on a large, slowly
changing environment the naive engine pays for the full
relation at every instant while the shared engine pays only for the
churn.  A 10 000-tuple relation with 1% churn per instant is re-evaluated
through a selection + natural join + projection plan on both engines; the
measured per-tick speedup must be at least 5×.

Results land in ``benchmarks/reports/tick_cost.txt`` and,
machine-readable, in ``BENCH_tick_cost.json`` at the repository root.

Set ``BENCH_SMOKE=1`` to run a reduced configuration (CI smoke job): the
relations shrink and only the basic speedup (shared > 1.5×) is asserted.
"""

import json
import os
from time import perf_counter

from repro.algebra import col, scan
from repro.bench.reporting import Report
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.model.attributes import Attribute
from repro.model.environment import PervasiveEnvironment
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

ROWS = 2_000 if SMOKE else 10_000
TICKS = 8 if SMOKE else 25
CHURN = 0.01
CATEGORIES = 50
MIN_SPEEDUP = 1.5 if SMOKE else 5.0


def _write_artifact(payload: dict) -> None:
    root = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
    with open(os.path.join(root, "BENCH_tick_cost.json"), "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def items_schema():
    return ExtendedRelationSchema(
        "items",
        [
            Attribute("item", DataType.STRING),
            Attribute("category", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def categories_schema():
    return ExtendedRelationSchema(
        "categories",
        [
            Attribute("category", DataType.STRING),
            Attribute("label", DataType.STRING),
        ],
    )


def item_row(idx, instant=0):
    return (
        f"item{idx}",
        f"cat{idx % CATEGORIES}",
        float((idx + instant * 7) % 97),
    )


class Driver:
    """One engine's environment plus the deterministic churn script."""

    def __init__(self, engine):
        self.env = PervasiveEnvironment()
        self.items = XDRelation(items_schema())
        self.rows = {idx: item_row(idx) for idx in range(ROWS)}
        self.items.insert(self.rows.values(), instant=0)
        self.env.add_relation(self.items)
        categories = XDRelation(categories_schema())
        categories.insert(
            [(f"cat{c}", f"label{c}") for c in range(CATEGORIES)], instant=0
        )
        self.env.add_relation(categories)
        query = (
            scan(self.env, "items")
            .select(col("value").ge(5.0))
            .join(scan(self.env, "categories"))
            .project("item", "label")
            .query("tick-cost")
        )
        self.cq = ContinuousQuery(query, self.env, engine=engine)

    def tick(self, instant):
        """Churn 1% of the items, then evaluate; returns evaluation seconds."""
        batch = int(ROWS * CHURN)
        start = (instant - 1) * batch
        for offset in range(batch):
            idx = (start + offset) % ROWS
            replacement = item_row(idx, instant)
            if replacement != self.rows[idx]:
                self.items.delete([self.rows[idx]], instant=instant)
                self.items.insert([replacement], instant=instant)
                self.rows[idx] = replacement
        began = perf_counter()
        self.cq.evaluate_at(instant)
        return perf_counter() - began


def test_bench_tick_cost(benchmark):
    def run():
        drivers = {engine: Driver(engine) for engine in ("naive", "shared")}
        seconds = {engine: 0.0 for engine in drivers}
        for engine, driver in drivers.items():
            driver.tick(1)  # warm-up: builds executor state / first result
            for instant in range(2, TICKS + 2):
                seconds[engine] += driver.tick(instant)
        # Both engines must still agree, or the speedup is meaningless.
        relations = {
            engine: driver.cq.last_result.relation.tuples
            for engine, driver in drivers.items()
        }
        assert relations["shared"] == relations["naive"]
        return seconds

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = seconds["naive"] / seconds["shared"]
    assert speedup >= MIN_SPEEDUP, (
        f"shared engine only {speedup:.1f}× faster than naive "
        f"({ROWS} rows, {CHURN:.0%} churn, {TICKS} ticks)"
    )

    if not SMOKE:  # the committed artifact records the full configuration
        _write_artifact(
            {
                "rows": ROWS,
                "churn": CHURN,
                "ticks": TICKS,
                "naive_seconds": round(seconds["naive"], 6),
                "shared_seconds": round(seconds["shared"], 6),
                "speedup": round(speedup, 2),
                "mode": "full",
            }
        )

    report = Report("tick_cost")
    report.table(
        ["engine", "total (s)", "per tick (ms)"],
        [
            [engine, f"{total:.4f}", f"{total / TICKS * 1000:.2f}"]
            for engine, total in seconds.items()
        ],
        title=(
            f"Steady-state tick cost: {ROWS} tuples, {CHURN:.0%} churn, "
            f"{TICKS} timed ticks"
        ),
    )
    report.add(f"Speedup (naive / shared): {speedup:.1f}×")
    report.emit()

