"""What the benchmark measures: workloads, metric names, units, bounds.

Everything a later PR may cite lives here — the four workload
definitions (fleet sizes, query counts, subscriber mix, tick counts), the
end-to-end metrics with their regression bounds and the per-layer metric
names.  ``BENCHMARK.json`` at the repo root is :func:`manifest` rendered
to JSON; ``test_smoke.py`` pins the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Seconds of timed ticks one run measures (``--seconds`` default; the
#: driver always passes this value).  Tick counts below are sized so the
#: timed window lasts about this long on the 2-CPU reference box.
RUN_SECONDS = 15

#: Ticks before the registration phase (fleet discovery, lowering,
#: first-tick snapshots) and after it (the new queries' first evaluation
#: and first wire snapshot) — neither is timed.
WARMUP_TICKS = 5
SETTLE_TICKS = 2

#: Instants (from the build) compared against the ``naive`` oracle.
ORACLE_INSTANTS = 20

#: Rounds per run: fresh build from seed ``<S>-r<k>`` each.
ROUNDS = 5

#: In-process subscriber cadence classes: (name, drain every N instants,
#: weight out of 10).  ``slow`` exceeds ``QUEUE_DEPTH`` so its queues
#: coalesce every tick; ``fast`` and ``medium`` never overflow.
CADENCES = (("fast", 1, 5), ("medium", 4, 3), ("slow", 16, 2))
QUEUE_DEPTH = 8


@dataclass(frozen=True)
class Workload:
    """One named workload: a fleet, a query mix, a subscriber mix."""

    name: str
    why: str
    zones: int
    meters: int  # per zone
    relays: int  # per zone
    stations: int  # per zone
    per_zone_pack: bool  # standing pack with the per-zone pinned queries
    bank: int  # seeded SQL queries registered for good on the warm PEMS
    probe: int  # seeded SQL queries registered (timed), then deregistered
    wire_queries: int  # distinct SQL queries the subscribers share
    connections: int  # JSONL TCP clients (<= nproc)
    wire_subs: int  # subscriptions per TCP client
    subscribers: int  # in-process subscriptions (cadence classes 5:3:2)
    chaos: bool  # churn + cascade + Local-ERM deregister/register
    ticks: int  # timed ticks per round at RUN_SECONDS
    traced_ticks: int  # timed ticks of the traced round

    @property
    def devices(self) -> int:
        # + spare and weather station per zone, + the alert sink
        return self.zones * (self.meters + self.relays + self.stations + 2) + 1

    @property
    def crash_after(self) -> int:
        """Timed ticks before the cascade's station crash (inside even
        the shortest window this workload runs)."""
        return min(CRASH_AFTER, min(self.ticks, self.traced_ticks) // 4)

    def sized(self, seconds: float, smoke: bool) -> "Workload":
        """This workload at the requested run length (and smoke scale:
        about an eighth of the fleet, 10 ticks, 100 subscribers)."""
        if smoke:
            return replace(
                self,
                zones=max(2, self.zones // 4),
                meters=max(8, self.meters // 4),
                bank=self.bank // 8,
                probe=max(4, self.probe // 8),
                subscribers=min(self.subscribers, 100),
                wire_subs=min(self.wire_subs, 8),
                ticks=10,
                traced_ticks=16 if self.subscribers else 10,
            )
        scale = seconds / RUN_SECONDS
        return replace(self, ticks=max(20, round(self.ticks * scale)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city_steady",
            why="reference 2017-device city, quiet grid: ingest path does most "
            "of the tick, so ingest optimisations must show here first",
            zones=8, meters=240, relays=8, stations=2, per_zone_pack=True,
            bank=0, probe=64, wire_queries=4, connections=1, wire_subs=4,
            subscribers=0, chaos=False, ticks=40, traced_ticks=40,
        ),
        Workload(
            name="query_bank",
            why="273 devices under 160 seeded SQL queries: executors do most "
            "of the tick, so it is the control for ingest changes",
            zones=4, meters=60, relays=4, stations=2, per_zone_pack=True,
            bank=160, probe=0, wire_queries=4, connections=1, wire_subs=4,
            subscribers=0, chaos=False, ticks=40, traced_ticks=40,
        ),
        Workload(
            name="subscriber_fanout",
            why="137 devices behind 2400 mixed-cadence subscribers and 2 TCP "
            "clients: the server layer dominates and the wire is loaded",
            zones=2, meters=60, relays=4, stations=2, per_zone_pack=False,
            bank=0, probe=64, wire_queries=8, connections=2, wire_subs=32,
            subscribers=2400, chaos=False, ticks=160, traced_ticks=160,
        ),
        Workload(
            name="fleet_chaos",
            why="the city_steady fleet under churn, a cascade and Local-ERM "
            "deregistration: failure, failover, quarantine and delete paths",
            zones=8, meters=240, relays=8, stations=2, per_zone_pack=True,
            bank=0, probe=64, wire_queries=4, connections=1, wire_subs=4,
            subscribers=0, chaos=True, ticks=40, traced_ticks=40,
        ),
    )
}

#: Chaos parameters of ``fleet_chaos`` (instants relative to the first
#: timed tick).
CHURN_RATE = 0.05
CRASH_AFTER = 10
FLICKER_TICKS = 20
DEREGISTER_EVERY = 10
DEREGISTER_COUNT = 8


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Bounds are what this box can resolve: about three times the widest
#: seed-to-seed spread (IQR / median over ten seeds) measured on any
#: workload when the benchmark was recorded — see README "Bounds and
#: noise".  ``setup_s`` carries the largest bound.
END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "build + subscriptions + warm-up ticks + timed registrations + "
        "settle ticks of one round; median of rounds",
    ),
    EndToEnd(
        "tick_ms_p50", "ms", "lower", 0.18,
        "wall time of SubscriptionServer.tick() (PEMS tick + publish "
        "loop); pooled median",
    ),
    EndToEnd(
        "tick_ms_p95", "ms", "lower", 0.25,
        "p95 of each round's ticks; lower quartile of the rounds",
    ),
    EndToEnd(
        "readings_per_s", "1/s", "higher", 0.25,
        "per round: rows inserted into the four telemetry streams during "
        "the timed ticks / summed instant service time (tick start to "
        "last delta line received); median of rounds",
    ),
    EndToEnd(
        "delta_wire_ms_p50", "ms", "lower", 0.20,
        "just before server.tick() to readline() return of each delta "
        "line of that instant on the TCP clients; pooled median",
    ),
    EndToEnd(
        "delta_wire_ms_p95", "ms", "lower", 0.25,
        "p95 of each round's wire samples; lower quartile of the rounds",
    ),
    EndToEnd(
        "register_ms_p50", "ms", "lower", 0.25,
        "wall time of each register_continuous_sql call for the seeded "
        "bank/probe queries on the warm PEMS; pooled median",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.15,
        "ru_maxrss of the run's process after the measured rounds",
    ),
)

#: Executor kinds reported under ``exec.op.<kind>.*``, keyed by the class
#: name of the logical operator each executor runs (backend-neutral).
EXEC_KINDS = {
    "scan": ("Scan", "BaseRelation"),
    "window": ("Window",),
    "selection": ("Selection",),
    "projection": ("Projection",),
    "join": ("NaturalJoin",),
    "aggregate": ("Aggregate",),
    "invocation": ("Invocation", "StreamingInvocation"),
}

#: The repo's modules, as layers of one instant.
LAYERS = ("city", "devices", "model", "continuous", "pems", "exec", "server")


def _per_layer() -> dict[str, str]:
    names = {
        "city.feeder.self_us_per_tick": "us",
        "city.feeder.rows_per_tick": "count",
        "devices.handler.self_us_per_call": "us",
        "devices.handler.calls_per_tick": "count",
        "devices.handler.raised_per_tick": "count",
        "model.invoke.self_us_per_call": "us",
        "model.invoke.calls_per_tick": "count",
        "model.invoke.failed_share": "ratio",
        "model.invoke.memo_hit_share": "ratio",
        "model.invoke.fast_failed_per_tick": "count",
        "model.invoke.substituted_per_tick": "count",
        "model.health.transitions_per_tick": "count",
        "continuous.insert.self_us_per_row": "us",
        "continuous.insert.rows_per_tick": "count",
        "continuous.delete.self_us_per_row": "us",
        "continuous.delete.rows_per_tick": "count",
        "pems.tables.self_us_per_tick": "us",
        "pems.erm_available.self_us_per_tick": "us",
        "pems.tick_residual.self_us_per_tick": "us",
        "pems.discovery.events_per_tick": "count",
        "exec.plan.self_us_per_tick": "us",
        "exec.evaluate.self_us_per_call": "us",
        "exec.evaluate.calls_per_tick": "count",
        "exec.carry.self_us_per_call": "us",
        "exec.carry.calls_per_tick": "count",
        "exec.skip_share": "ratio",
        "exec.failures_per_tick": "count",
        "exec.shared.subplan_share": "ratio",
    }
    for kind in EXEC_KINDS:
        names[f"exec.op.{kind}.in_rows_per_tick"] = "count"
        names[f"exec.op.{kind}.out_rows_per_tick"] = "count"
    names["exec.op.scan.rows_scanned_per_tick"] = "count"
    names.update(
        {
            "lang.compile.self_us_per_query": "us",
            "exec.register.self_us_per_query": "us",
            "server.subscribe.self_us_per_call": "us",
            "server.tick.self_us_per_tick": "us",
            "server.queue_publish.self_us_per_call": "us",
            "server.queue_publish.calls_per_tick": "count",
            "server.render.self_us_per_msg": "us",
            "server.encode.self_us_per_msg": "us",
            "server.encode.bytes_per_tick": "B",
            "server.send.self_us_per_batch": "us",
            "server.send.batches_per_tick": "count",
            "server.coalesced_per_tick": "count",
            "server.dropped_per_tick": "count",
            "server.us_per_subscriber_tick": "us",
        }
    )
    for layer in LAYERS:
        names[f"layer.share.{layer}"] = "ratio"
    names["layer.ingest_us_per_device"] = "us"
    names["layer.exec_us_per_query"] = "us"
    names["trace.overhead_ratio"] = "ratio"
    names["trace.coverage"] = "ratio"
    return names


#: Per-layer metric name -> unit (68 names).
PER_LAYER = _per_layer()

#: Every metric moves towards "lower is better" except these.
HIGHER_IS_BETTER = frozenset(
    {"model.invoke.memo_hit_share", "exec.skip_share",
     "exec.shared.subplan_share", "trace.coverage"}
)

ASSUMPTIONS = (
    "virtual clock: an instant is one PEMS.tick(), not a wall-clock period",
    "loopback TCP: no network latency, loss or bandwidth limit",
    "devices are simulated in-process; an invocation is a Python call",
    "server, TCP clients and load driver share one asyncio event loop",
    "closed loop: the next instant starts after the previous instant's "
    "deltas were received",
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name, unit in PER_LAYER.items()
        ],
    }
