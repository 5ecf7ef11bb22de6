"""What one run computes: end-to-end metrics, the oracle check and the
traced round's per-layer table.

``measure`` runs the untraced rounds (the only source of end-to-end
numbers), ``trace_layers`` the traced round plus its untraced twin (for
``trace.overhead_ratio``), ``oracle`` the comparison with the ``naive``
engine.  All three count what they attempt and what fails in one
:class:`~harness.Tally`.
"""

from __future__ import annotations

import math
import resource
import statistics
from time import perf_counter

from harness import Round, Tally
from spec import (
    EXEC_KINDS,
    LAYERS,
    ORACLE_INSTANTS,
    PER_LAYER,
    ROUNDS,
    SETTLE_TICKS,
    WARMUP_TICKS,
    Workload,
)
from trace import CALLS, RAISED, RAW_SELF, SELF, UNITS, Tracer

OUTCOMES = ("success", "memo_hit", "fast_failed", "failed", "substituted")


def quiet(values: list[float]) -> float:
    """Lower quartile of per-round values (second lowest of five).  Host
    noise on the shared box comes in bursts that hit whole rounds and
    only ever adds time, so the tail metrics take the quiet rounds."""
    return sorted(values)[(len(values) - 1) // 4]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


async def _play(workload: Workload, seed: str, tally: Tally, ticks: int, hook=None):
    """Build, prepare, run and verify one round; returns the round, its
    set-up seconds, its timed cycles and the telemetry rows it ingested.
    ``hook(round)`` runs between set-up and the timed window."""
    started = perf_counter()
    current = Round(workload, seed, tally)
    current.build()
    try:
        await current.prepare()
        setup = perf_counter() - started
        if hook is not None:
            hook(current)
        rows = current.stream_rows()
        cycles = await current.run(ticks)
        rows = current.stream_rows() - rows
        current.verify(ticks)
    finally:
        await current.close()
    return current, setup, cycles, rows


# -- end to end ------------------------------------------------------------------


async def measure(workload: Workload, seed: str, tally: Tally, rounds: int = ROUNDS):
    """The untraced rounds.  Returns ``(metrics, detail)``: metric name ->
    value, and per metric the sample count, the per-round values and,
    where the metric is taken across rounds, the pooled value."""
    ticks, wires, registers, per_round = [], [], [], []
    rows = service = 0.0
    for k in range(rounds):
        current, setup, cycles, ingested = await _play(
            workload, f"{seed}-r{k}", tally, workload.ticks, _station_watch
        )
        round_ticks = [c.tick for c in cycles]
        round_wires = [w for c in cycles for w in c.wire]
        round_service = sum(c.service for c in cycles)
        ticks += round_ticks
        wires += round_wires
        registers += current.register_s
        rows += ingested
        service += round_service
        per_round.append(
            {
                "setup_s": setup,
                "tick_ms_p50": statistics.median(round_ticks) * 1e3,
                "tick_ms_p95": percentile(round_ticks, 0.95) * 1e3,
                "readings_per_s": ingested / round_service,
                "delta_wire_ms_p50": statistics.median(round_wires) * 1e3,
                "delta_wire_ms_p95": percentile(round_wires, 0.95) * 1e3,
                "register_ms_p50": statistics.median(current.register_s) * 1e3,
            }
        )

    def across(name: str, pick) -> float:
        return pick([r[name] for r in per_round])

    metrics = {
        "setup_s": across("setup_s", statistics.median),
        "tick_ms_p50": statistics.median(ticks) * 1e3,
        "tick_ms_p95": across("tick_ms_p95", quiet),
        "readings_per_s": across("readings_per_s", statistics.median),
        "delta_wire_ms_p50": statistics.median(wires) * 1e3,
        "delta_wire_ms_p95": across("delta_wire_ms_p95", quiet),
        "register_ms_p50": statistics.median(registers) * 1e3,
        # Read before the oracle runs, so the naive twin never sets the peak.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": rounds,
        "tick_ms_p50": len(ticks),
        "tick_ms_p95": len(ticks),
        "readings_per_s": int(rows),
        "delta_wire_ms_p50": len(wires),
        "delta_wire_ms_p95": len(wires),
        "register_ms_p50": len(registers),
        "peak_rss_mb": 1,
    }
    pooled = {
        "tick_ms_p95": percentile(ticks, 0.95) * 1e3,
        "readings_per_s": rows / service,
        "delta_wire_ms_p95": percentile(wires, 0.95) * 1e3,
    }
    detail = {
        name: {
            "n": samples[name],
            "rounds": [r[name] for r in per_round if name in r] or [value],
            **({"pooled": pooled[name]} if name in pooled else {}),
        }
        for name, value in metrics.items()
    }
    return metrics, detail


def _station_watch(current: Round) -> None:
    """On ``fleet_chaos``: ``station-health`` must hold one row per
    station at every timed instant (zero missed readings)."""
    if not current.workload.chaos:
        return
    stations = current.workload.zones * current.workload.stations
    health = current.city.queries["station-health"]
    outer = current.after_cycle

    def watch(instant: int, wall: float) -> None:
        if outer is not None:
            outer(instant, wall)
        result = health.last_result
        current.tally.check(
            result is not None and len(result.relation.tuples) == stations,
            f"instant {instant}: station-health missed a reading",
        )

    current.after_cycle = watch


# -- the oracle --------------------------------------------------------------------


async def _trajectory(workload: Workload, seed: str, engine: str, tally: Tally):
    """Every query's result tuples per instant and the alert sequence
    for the first ``ORACLE_INSTANTS`` instants on ``engine``."""
    current = Round(workload, seed, tally, engine)
    results: dict[tuple[int, str], frozenset | None] = {}

    def capture(instant: int, wall: float) -> None:
        for name, query in current.pems.queries.continuous_queries.items():
            result = query.last_result
            fresh = result is not None and result.instant == instant
            results[instant, name] = (
                frozenset(result.relation.tuples) if fresh else None
            )

    current.after_cycle = capture
    current.build()
    try:
        await current.prepare()
        await current.run(ORACLE_INSTANTS - WARMUP_TICKS - SETTLE_TICKS)
    finally:
        await current.close()
    # Engines visit an instant's tuples in different orders; the paper's
    # equivalence is on the action *set*, so order within an instant is
    # normalised and the sequence of per-instant sets is compared.
    alerts = sorted(
        current.city.alerts.alerts, key=lambda a: (a.instant, a.sink, a.zone, a.load)
    )
    return results, alerts


async def oracle(workload: Workload, seed: str, tally: Tally) -> None:
    """The default system against ``engine="naive"`` on the same inputs:
    every query's tuples at every instant, and the alert sequence."""
    got, got_alerts = await _trajectory(workload, seed, "shared", tally)
    want, want_alerts = await _trajectory(workload, seed, "naive", tally)
    for key in sorted(set(got) | set(want)):
        tally.check(
            key in got and key in want and got[key] == want[key],
            f"oracle: query {key[1]!r} differs from naive at instant {key[0]}",
        )
    tally.check(
        got_alerts == want_alerts,
        f"oracle: alert sequence differs from naive "
        f"({len(got_alerts)} vs {len(want_alerts)} alerts)",
    )


# -- the traced round ----------------------------------------------------------------


def _counters(current: Round) -> dict[str, float]:
    """Cumulative counts, from public state only."""
    pems = current.pems
    metrics = pems.obs.metrics
    out = {
        f"outcome.{o}": metrics.value("serena_invocation_outcomes_total", outcome=o)
        for o in OUTCOMES
    }
    out["transitions"] = metrics.family_total("serena_service_health_transitions_total")
    out["discovery"] = metrics.family_total("serena_discovery_events_total")
    out["failures"] = metrics.value("serena_query_failures_total")
    stats = pems.queries.scheduler.stats
    out["evaluations"], out["skips"] = stats["evaluations"], stats["skips"]
    out["stream_rows"] = current.stream_rows()
    queues = [
        subscription.queue
        for query in current.server.queries.values()
        for subscription in query.subscribers
    ]
    out["coalesced"] = sum(q.coalesced for q in queues)
    out["dropped"] = sum(q.dropped for q in queues)
    kinds = {cls: kind for kind, classes in EXEC_KINDS.items() for cls in classes}
    seen: set[int] = set()
    for kind in EXEC_KINDS:
        out[f"op.{kind}.in"] = out[f"op.{kind}.out"] = 0
    out["scanned"] = 0
    for query in pems.queries.continuous_queries.values():
        for executor in query.executors():
            kind = kinds.get(type(getattr(executor, "node", None)).__name__)
            if kind is None or id(executor) in seen:
                continue
            seen.add(id(executor))  # shared subplans count once
            stats = executor.stats
            out[f"op.{kind}.in"] += stats.input_inserted + stats.input_deleted
            out[f"op.{kind}.out"] += stats.output_inserted + stats.output_deleted
            out["scanned"] += stats.rows_scanned
    return out


async def trace_layers(workload: Workload, seed: str, tally: Tally):
    """One traced round between two untraced twins on the same seed (the
    box drifts by a few percent over seconds; bracketing cancels that
    out of ``trace.overhead_ratio``).  Returns ``(per-layer metrics,
    per-instant records, sampled spans)``."""
    tracer = Tracer()
    ticks = workload.traced_ticks
    _, _, twin, _ = await _play(workload, seed, tally, ticks, _station_watch)
    first = WARMUP_TICKS + SETTLE_TICKS + 1
    samples = {first, first + ticks // 2, first + ticks - 1}
    records: list[dict] = []
    phase = "setup"

    def cut(instant: int, wall: float) -> None:
        records.append(
            {"instant": instant, "phase": phase, "wall": wall, "rows": tracer.cut()}
        )
        tracer.instant = instant + 1
        tracer.capture = instant + 1 in samples

    current = Round(workload, seed, tally)
    current.build()  # outside the patch: FaultInjector captures handlers here
    current.after_cycle = cut
    tracer.instant = 1
    with tracer.installed():
        try:
            await current.prepare()
            phase = "timed"
            before = _counters(current)
            _station_watch(current)
            cycles = await current.run(ticks)
            after = _counters(current)
            # gauges and the query count, before shutdown releases the plans
            gauges = current.pems.obs.metrics
            subplans = gauges.value("serena_shared_subplans")
            refcount = gauges.value("serena_shared_refcount_total")
            queries = len(current.pems.queries.continuous_queries)
            current.verify(ticks)
        finally:
            await current.close()
    twin += (await _play(workload, seed, tally, ticks, _station_watch))[2]
    overhead = statistics.median(c.tick for c in cycles) / statistics.median(
        c.tick for c in twin
    )

    delta = {k: after[k] - before[k] for k in after}
    metrics = layer_metrics(
        [r for r in records if r["phase"] == "timed"],
        [r for r in records if r["phase"] == "setup"],
        delta,
        ticks=ticks,
        devices=workload.devices,
        queries=queries,
        subscriptions=workload.subscribers + workload.connections * workload.wire_subs,
        subplans=subplans,
        refcount=refcount,
        overhead=overhead,
    )
    return metrics, records, tracer.spans


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    timed, setup, delta, *, ticks, devices, queries, subscriptions,
    subplans, refcount, overhead,
) -> dict[str, float]:
    """The 68 per-layer numbers from the traced window's aggregates
    (self times, call counts) and public counter deltas."""

    def total(records, name, column):
        return sum(r["rows"][name][column] for r in records if name in r["rows"])

    def self_us(name, records=timed):
        return total(records, name, SELF) * 1e6

    def calls(name, records=timed):
        return total(records, name, CALLS)

    def per_tick(value):
        return value / ticks

    names = {name for r in timed for name in r["rows"]}
    layer_us = {
        layer: sum(self_us(n) for n in names if n.split(".")[0] == layer)
        for layer in LAYERS
    }
    cycle_us = sum(layer_us.values())
    attempts = sum(delta[f"outcome.{o}"] for o in OUTCOMES)
    m = {
        "city.feeder.self_us_per_tick": per_tick(self_us("city.feeder")),
        "city.feeder.rows_per_tick": per_tick(delta["stream_rows"]),
        "devices.handler.self_us_per_call": _ratio(
            self_us("devices.handler"), calls("devices.handler")
        ),
        "devices.handler.calls_per_tick": per_tick(calls("devices.handler")),
        "devices.handler.raised_per_tick": per_tick(
            total(timed, "devices.handler", RAISED)
        ),
        "model.invoke.self_us_per_call": _ratio(
            self_us("model.invoke"), calls("model.invoke")
        ),
        "model.invoke.calls_per_tick": per_tick(calls("model.invoke")),
        "model.invoke.failed_share": _ratio(
            delta["outcome.failed"] + delta["outcome.fast_failed"], attempts
        ),
        "model.invoke.memo_hit_share": _ratio(delta["outcome.memo_hit"], attempts),
        "model.invoke.fast_failed_per_tick": per_tick(delta["outcome.fast_failed"]),
        "model.invoke.substituted_per_tick": per_tick(delta["outcome.substituted"]),
        "model.health.transitions_per_tick": per_tick(delta["transitions"]),
        "pems.tables.self_us_per_tick": per_tick(self_us("pems.tables")),
        "pems.erm_available.self_us_per_tick": per_tick(self_us("pems.erm_available")),
        "pems.tick_residual.self_us_per_tick": per_tick(self_us("pems.tick")),
        "pems.discovery.events_per_tick": per_tick(delta["discovery"]),
        "exec.plan.self_us_per_tick": per_tick(self_us("exec.plan")),
        "exec.skip_share": _ratio(
            delta["skips"], delta["skips"] + delta["evaluations"]
        ),
        "exec.failures_per_tick": per_tick(delta["failures"]),
        "exec.shared.subplan_share": _ratio(refcount - subplans, refcount),
        "exec.op.scan.rows_scanned_per_tick": per_tick(delta["scanned"]),
        "lang.compile.self_us_per_query": _ratio(
            self_us("lang.compile", setup), calls("lang.compile", setup)
        ),
        "exec.register.self_us_per_query": _ratio(
            self_us("exec.register", setup), calls("exec.register", setup)
        ),
        "server.subscribe.self_us_per_call": _ratio(
            self_us("server.subscribe", setup), calls("server.subscribe", setup)
        ),
        "server.tick.self_us_per_tick": per_tick(self_us("server.tick")),
        "server.queue_publish.self_us_per_call": _ratio(
            self_us("server.queue_publish"), calls("server.queue_publish")
        ),
        "server.queue_publish.calls_per_tick": per_tick(calls("server.queue_publish")),
        # one encode per delta message; render_rows runs twice per message
        "server.render.self_us_per_msg": _ratio(
            self_us("server.render"), calls("server.encode")
        ),
        "server.encode.self_us_per_msg": _ratio(
            self_us("server.encode"), calls("server.encode")
        ),
        "server.encode.bytes_per_tick": per_tick(total(timed, "server.encode", UNITS)),
        "server.send.self_us_per_batch": _ratio(
            self_us("server.send"), calls("server.send")
        ),
        "server.send.batches_per_tick": per_tick(calls("server.send")),
        "server.coalesced_per_tick": per_tick(delta["coalesced"]),
        "server.dropped_per_tick": per_tick(delta["dropped"]),
        "server.us_per_subscriber_tick": _ratio(
            per_tick(layer_us["server"]), subscriptions
        ),
        "layer.ingest_us_per_device": _ratio(
            per_tick(
                sum(layer_us[k] for k in ("city", "devices", "model", "continuous"))
                + self_us("pems.tables")
            ),
            devices,
        ),
        "layer.exec_us_per_query": _ratio(per_tick(layer_us["exec"]), queries),
        "trace.overhead_ratio": overhead,
        # uncorrected self times: the wall includes the wrappers' cost too
        "trace.coverage": _ratio(
            sum(total(timed, n, RAW_SELF) for n in names),
            sum(r["wall"] for r in timed),
        ),
    }
    for span in ("continuous.insert", "continuous.delete"):
        rows = total(timed, span, UNITS)
        m[f"{span}.self_us_per_row"] = _ratio(self_us(span), rows)
        m[f"{span}.rows_per_tick"] = per_tick(rows)
    for span in ("exec.evaluate", "exec.carry"):
        m[f"{span}.self_us_per_call"] = _ratio(self_us(span), calls(span))
        m[f"{span}.calls_per_tick"] = per_tick(calls(span))
    for kind in EXEC_KINDS:
        m[f"exec.op.{kind}.in_rows_per_tick"] = per_tick(delta[f"op.{kind}.in"])
        m[f"exec.op.{kind}.out_rows_per_tick"] = per_tick(delta[f"op.{kind}.out"])
    for layer in LAYERS:
        m[f"layer.share.{layer}"] = _ratio(layer_us[layer], cycle_us)
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return {name: m[name] for name in PER_LAYER}
