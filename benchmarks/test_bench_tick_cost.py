"""Experiment X5 — steady-state tick cost: delta-driven (shared) vs naive
engine, and the row-vs-columnar backend sweep.

Part one (the point of the physical layer, :mod:`repro.exec`): on a
large, slowly changing environment the naive engine pays for the full
relation at every instant while the shared engine pays only for the
churn.  A 10 000-tuple relation with 1% churn per instant is re-evaluated
through a selection + natural join + projection plan on both engines; the
measured per-tick speedup must be at least 5×.

Part two (the point of the columnar backend, :mod:`repro.exec.vectorized`):
once deltas are incremental, the floor is the per-row interpretation
itself.  A scan → select → join plan over an 8-attribute relation is
ticked on both backends at 10k/100k/1M rows, measuring

* the *cold* tick — the whole relation flows through the plan as one
  batch, exactly where batch evaluation (one compiled filter call per
  batch, key gathers without transposing, interned join probes) pays off;
  the columnar backend must be ≥5× faster at 100k rows and never slower
  at any size;
* the *steady* tick — 1% churn per instant; here the shared per-delta
  contract costs (journal fold, ``current`` maintenance, delta
  materialization) bound the ratio, so the columnar win is smaller; it
  is recorded, and the backend must again never be slower.

Results land in ``benchmarks/reports/tick_cost.txt`` /
``columnar_sweep.txt`` and, machine-readable, in ``BENCH_tick_cost.json``
at the repository root (the two tests merge into the one artifact).

Set ``BENCH_SMOKE=1`` to run a reduced configuration (CI smoke job): the
relations shrink, the sweep only runs its 10k point, and only the basic
speedups (shared > 1.5×, columnar not slower than row) are asserted.
"""

import gc
import json
import os
from time import perf_counter

from repro.algebra import col, scan
from repro.algebra.context import EvaluationContext
from repro.bench.reporting import Report
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.exec.lowering import lower
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


def _merge_artifact(update: dict) -> None:
    """Read-merge-write ``BENCH_tick_cost.json`` so the two benchmarks
    (engine comparison, backend sweep) share one artifact."""
    root = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
    path = os.path.join(root, "BENCH_tick_cost.json")
    payload = {}
    if os.path.exists(path):
        with open(path) as f:
            payload = json.load(f)
    payload.update(update)
    with open(path, "w") as f:
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
        _merge_artifact(
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


# ---------------------------------------------------------------------------
# Row-vs-columnar backend sweep (scan → select → join)
# ---------------------------------------------------------------------------

#: Sweep sizes; the ≥5× acceptance bar applies to the cold tick at 100k.
SWEEP_SIZES = [10_000] if SMOKE else [10_000, 100_000, 1_000_000]
SWEEP_TICKS = 6 if SMOKE else 8
SWEEP_CHURN = 0.01
#: Cold-tick timing rounds (min taken) per size; singletons keep 1M cheap.
SWEEP_ROUNDS = {10_000: 3, 100_000: 5, 1_000_000: 1}
#: Steady ticks are skipped above this size (cold is the 1M datapoint).
SWEEP_STEADY_MAX = 100_000
COLD_TARGET_ROWS = 100_000
COLD_TARGET = 5.0


def readings_schema():
    return ExtendedRelationSchema(
        "readings",
        [
            Attribute("device", DataType.STRING),
            Attribute("category", DataType.STRING),
            Attribute("zone", DataType.STRING),
            Attribute("flag", DataType.STRING),
            Attribute("value", DataType.REAL),
            Attribute("quality", DataType.REAL),
            Attribute("battery", DataType.REAL),
            Attribute("seq", DataType.INTEGER),
        ],
    )


def reading_row(idx, instant=0):
    return (
        f"dev{idx}",
        f"cat{idx % CATEGORIES}",
        f"z{idx % 7}",
        "ok",
        float((idx * 13 + instant * 7) % 97),
        float(idx % 10) / 10.0 + 0.05,
        float(idx % 5) + 1.0,
        idx,
    )


#: A dashboard-style conjunction: mostly-true guard terms first, the
#: selective threshold last — the interpreter walks the full AST per row
#: while the compiled filter evaluates twelve inline comparisons.
SWEEP_PREDICATE = (
    col("flag").ne("bad")
    & col("device").contains("dev")
    & col("zone").ne("z999")
    & col("quality").ge(0.01)
    & col("battery").gt(0.0)
    & col("seq").ge(0)
    & col("category").ne("catX")
    & col("quality").le(1.5)
    & col("battery").le(6.0)
    & col("zone").contains("z")
    & col("flag").eq("ok")
    & col("value").ge(90.0)
)


class SweepDriver:
    """One backend's environment, lowered plan and churn script."""

    def __init__(self, size, backend):
        self.size = size
        self.env = PervasiveEnvironment()
        self.readings = XDRelation(readings_schema())
        self.rows = {idx: reading_row(idx) for idx in range(size)}
        self.readings.insert(self.rows.values(), instant=0)
        self.env.add_relation(self.readings)
        categories = XDRelation(categories_schema())
        categories.insert(
            [(f"cat{c}", f"label{c}") for c in range(CATEGORIES)], instant=0
        )
        self.env.add_relation(categories)
        query = (
            scan(self.env, "readings")
            .select(SWEEP_PREDICATE)
            .join(scan(self.env, "categories"))
            .query("columnar-sweep")
        )
        self.root = lower(query.root, backend=backend)

    def tick(self, instant):
        """Advance the lowered plan one instant; returns seconds.

        Timing is at the executor level (``root.tick``) with the garbage
        collector paused, so the numbers isolate the backends' own work
        from engine-level result materialization and GC pauses."""
        ctx = EvaluationContext(
            self.env, instant, states={}, continuous=True
        )
        gc.disable()
        began = perf_counter()
        self.root.tick(ctx)
        elapsed = perf_counter() - began
        gc.enable()
        return elapsed

    def churn(self, instant):
        batch = int(self.size * SWEEP_CHURN)
        start = (instant - 1) * batch
        for offset in range(batch):
            idx = (start + offset) % self.size
            replacement = reading_row(idx, instant)
            if replacement != self.rows[idx]:
                self.readings.delete([self.rows[idx]], instant=instant)
                self.readings.insert([replacement], instant=instant)
                self.rows[idx] = replacement


def _cold_ms(size, backend):
    """Best-of-rounds first-tick cost: the whole relation as one batch."""
    best, result = None, None
    for _ in range(SWEEP_ROUNDS.get(size, 1)):
        gc.collect()
        driver = SweepDriver(size, backend)
        elapsed = driver.tick(1) * 1000
        best = elapsed if best is None else min(best, elapsed)
        result = frozenset(driver.root.current)
    return best, result


def _steady_ms(size, backend):
    """Per-tick cost under 1% churn, after a warm first tick."""
    gc.collect()
    driver = SweepDriver(size, backend)
    driver.churn(1)
    driver.tick(1)
    total = 0.0
    for instant in range(2, SWEEP_TICKS + 2):
        driver.churn(instant)
        total += driver.tick(instant)
    return total / SWEEP_TICKS * 1000, frozenset(driver.root.current)


def test_bench_columnar_sweep(benchmark):
    def run():
        points = []
        for size in SWEEP_SIZES:
            cold = {}
            for backend in ("row", "columnar"):
                cold[backend], result = _cold_ms(size, backend)
                cold[f"{backend}_result"] = result
            # Identical output, or the speedup is meaningless.
            assert cold["row_result"] == cold["columnar_result"]
            point = {
                "rows": size,
                "cold": {
                    "row_ms": round(cold["row"], 3),
                    "columnar_ms": round(cold["columnar"], 3),
                    "speedup": round(cold["row"] / cold["columnar"], 2),
                },
                "steady": None,
            }
            if size <= SWEEP_STEADY_MAX:
                steady = {}
                for backend in ("row", "columnar"):
                    steady[backend], result = _steady_ms(size, backend)
                    steady[f"{backend}_result"] = result
                assert steady["row_result"] == steady["columnar_result"]
                point["steady"] = {
                    "ticks": SWEEP_TICKS,
                    "churn": SWEEP_CHURN,
                    "row_ms_per_tick": round(steady["row"], 3),
                    "columnar_ms_per_tick": round(steady["columnar"], 3),
                    "speedup": round(steady["row"] / steady["columnar"], 2),
                }
            points.append(point)
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)

    for point in points:
        # The columnar backend must never be slower than row (CI smoke
        # gate), cold or steady.
        assert point["cold"]["speedup"] >= 1.0, point
        if point["steady"] is not None:
            assert point["steady"]["speedup"] >= 1.0, point
        if not SMOKE and point["rows"] == COLD_TARGET_ROWS:
            assert point["cold"]["speedup"] >= COLD_TARGET, (
                f"columnar backend only {point['cold']['speedup']}× faster "
                f"than row on the cold {COLD_TARGET_ROWS}-row batch"
            )

    if not SMOKE:
        _merge_artifact(
            {
                "columnar_sweep": {
                    "plan": "scan(readings) . select(12-term) . join(categories)",
                    "predicate_terms": 12,
                    "schema_width": 8,
                    "points": points,
                }
            }
        )

    report = Report("columnar_sweep")
    rows = []
    for point in points:
        cold = point["cold"]
        rows.append(
            [
                f"{point['rows']:,}",
                "cold",
                f"{cold['row_ms']:.1f}",
                f"{cold['columnar_ms']:.1f}",
                f"{cold['speedup']:.2f}×",
            ]
        )
        if point["steady"] is not None:
            steady = point["steady"]
            rows.append(
                [
                    f"{point['rows']:,}",
                    "steady",
                    f"{steady['row_ms_per_tick']:.2f}",
                    f"{steady['columnar_ms_per_tick']:.2f}",
                    f"{steady['speedup']:.2f}×",
                ]
            )
    report.table(
        ["rows", "tick", "row (ms)", "columnar (ms)", "speedup"],
        rows,
        title=(
            "Row vs columnar backend: scan → select(12-term) → join, "
            f"cold batch and {SWEEP_CHURN:.0%}-churn steady ticks"
        ),
    )
    report.add(
        "Cold ticks push the whole relation through the compiled batch "
        "pipeline; steady ticks are bounded by shared per-delta contract "
        "costs, so the columnar margin is structurally smaller there."
    )
    report.emit()
