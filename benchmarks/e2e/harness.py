"""The load driver: one round of one workload, closed loop.

A :class:`Round` is a fresh city behind a ``SubscriptionServer`` with its
JSONL TCP clients and in-process subscribers.  Everything the program
sees is generated from the round's seed: the ``CityConfig`` (device
attributes, churn draws, cascade stagger), the query-bank thresholds,
the subscriber→query assignment and the chaos driver's picks.  One
process, one thread, one event loop shared by server and clients; the
next instant starts only after the previous instant's delta lines have
been received.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.city import CascadeSpec, CityConfig, build_city
from repro.city.devices import READ_LOAD
from repro.errors import SerenaError
from repro.server import SubscriptionServer
from repro.server.service import normalize_sql

from spec import (
    CADENCES,
    CHURN_RATE,
    DEREGISTER_COUNT,
    DEREGISTER_EVERY,
    FLICKER_TICKS,
    QUEUE_DEPTH,
    SETTLE_TICKS,
    WARMUP_TICKS,
    Workload,
)

#: The four telemetry streams the fleet feeders fill.
STREAMS = (
    "load_readings",
    "station_telemetry",
    "relay_telemetry",
    "weather_telemetry",
)

#: A delta line later than this after its tick counts as missing.
WIRE_TIMEOUT_S = 10.0


def city_config(workload: Workload, seed: str) -> CityConfig:
    chaos = workload.chaos
    return CityConfig(
        name=workload.name,
        seed=seed,
        zones=workload.zones,
        meters_per_zone=workload.meters,
        relays_per_zone=workload.relays,
        stations_per_zone=workload.stations,
        churn_rate=CHURN_RATE if chaos else 0.0,
        cascade=CascadeSpec(
            zone=0,
            crash_at=WARMUP_TICKS + SETTLE_TICKS + workload.crash_after,
            flicker_ticks=FLICKER_TICKS,
            stagger=1,
        )
        if chaos
        else None,
    )


# -- seeded query generators ---------------------------------------------------


def _threshold(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high) * 4.0) / 4.0  # quarter steps, like loads


def bank_queries(seed: str, zones: tuple[str, ...], count: int) -> list[str]:
    """``count`` distinct Serena-SQL queries: half σ/π thresholds over
    ``load_readings [1]``, a quarter grouped aggregates, an eighth joins
    with ``zone_thresholds``, an eighth quiescent σ/π over the discovery
    tables (those only ever carry forward)."""
    rng = random.Random(f"{seed}:bank")
    quiescent_pool = [
        f"SELECT {column}, zone FROM {table} WHERE zone {op} '{zone}'"
        for table, column in (
            ("meters", "meter"), ("relays", "relay"), ("stations", "station")
        )
        for zone in zones
        for op in ("=", "!=")
    ]
    quiescent = min(count // 8, len(quiescent_pool))
    joins = count // 8
    grouped = count // 4
    queries: dict[str, None] = dict.fromkeys(rng.sample(quiescent_pool, quiescent))

    def fill(target: int, make) -> None:
        while len(queries) < target:
            queries.setdefault(make(), None)

    fill(quiescent + joins, lambda: (
        "SELECT meter, zone, load, threshold FROM load_readings [1] "
        "NATURAL JOIN zone_thresholds "
        f"WHERE load > threshold AND load < {_threshold(rng, 80, 140)}"
    ))
    fill(quiescent + joins + grouped, lambda: rng.choice((
        "SELECT zone, avg(load) AS avg_load, count(*) AS readings "
        f"FROM load_readings [1] WHERE load > {_threshold(rng, 20, 70)} "
        "GROUP BY zone",
        "SELECT feeder, avg(load) AS avg_load FROM load_readings [1] "
        f"GROUP BY feeder HAVING avg_load > {_threshold(rng, 30, 90)}",
    )))
    fill(count, lambda: (
        f"SELECT {rng.choice(('meter, load', 'meter, zone, load', 'meter, feeder, load'))} "
        f"FROM load_readings [1] WHERE load {rng.choice('<>')} "
        f"{_threshold(rng, 25, 110)}"
    ))
    return list(queries)


def wire_queries(seed: str, count: int) -> list[str]:
    """The SQL the subscribers share: four fleet views that change every
    instant, then σ/π thresholds over the load window — an even grid
    with a little seeded jitter, so every seed loads the wire alike."""
    rng = random.Random(f"{seed}:wire")
    queries = [
        "SELECT zone, avg(load) AS avg_load, count(*) AS readings "
        "FROM load_readings [1] GROUP BY zone",
        "SELECT station, zone, utilization FROM station_telemetry [1]",
        "SELECT relay, zone, throughput FROM relay_telemetry [1] "
        "WHERE status = 'closed'",
        "SELECT station, zone, temperature, wind FROM weather_telemetry [1]",
    ][:count]
    extra = count - len(queries)
    for i in range(extra):
        threshold = 40.0 + 30.0 * i / max(1, extra - 1) + _threshold(rng, -1, 1)
        queries.append(
            f"SELECT meter, zone, load FROM load_readings [1] WHERE load > {threshold}"
        )
    return queries


# -- accounting ----------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed (``ops_failed_share``)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(note)
        return ok

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


# -- subscribers ---------------------------------------------------------------


class _Session:
    """The session shape ``SubscriptionServer.subscribe`` needs."""

    def __init__(self, client_id: str):
        self.client_id = client_id
        self.subscriptions: dict = {}


class LocalSubscriber:
    """One in-process subscription drained on its cadence."""

    __slots__ = ("speed", "cadence", "subscription", "state")

    def __init__(self, speed: str, cadence: int, subscription):
        self.speed = speed
        self.cadence = cadence
        self.subscription = subscription
        self.state: set[tuple] = set()

    def drain(self) -> None:
        state = self.state
        for entry in self.subscription.queue.drain_ready():
            state -= entry.delta.deleted
            state |= entry.delta.inserted


class WireClient:
    """One JSONL TCP connection: its subscriptions and their replicas."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: subscription name -> index into the round's wire queries
        self.subscriptions: dict[str, int] = {}
        self.replicas: dict[str, set[tuple]] = {}

    async def connect(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            host, port, limit=1 << 24
        )

    async def subscribe(self, name: str, sql: str, query_index: int) -> None:
        self.writer.write(
            json.dumps({"op": "register", "sql": sql, "name": name}).encode() + b"\n"
        )
        await self.writer.drain()
        while True:
            message = json.loads(
                await asyncio.wait_for(self.reader.readline(), WIRE_TIMEOUT_S)
            )
            if message["type"] == "registered" and message["name"] == name:
                break
            if message["type"] == "error":
                raise RuntimeError(f"subscription {name!r} rejected: {message}")
        self.subscriptions[name] = query_index
        self.replicas[name] = set()

    async def receive(self, expected: set[str], instant: int) -> list[float]:
        """Read this instant's delta lines; returns their receipt stamps
        (taken at ``readline()`` return, before any parsing)."""
        self.tally.attempted += len(expected)
        raw: list[tuple[float, bytes]] = []

        async def read() -> None:
            while len(raw) < len(expected):
                line = await self.reader.readline()
                raw.append((perf_counter(), line))
                if not line:
                    break

        try:
            await asyncio.wait_for(read(), WIRE_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        pending = set(expected)
        for _, line in raw:
            try:
                message = json.loads(line)
                name = message["name"]
                if message["type"] != "delta" or message["last"] != instant:
                    raise ValueError("not a delta of this instant")
                pending.remove(name)
                replica = self.replicas[name]
                replica.difference_update(map(tuple, message["deleted"]))
                replica.update(map(tuple, message["inserted"]))
            except (ValueError, KeyError):
                self.tally.fail(f"instant {instant}: bad wire line {line[:80]!r}")
        for name in sorted(pending):
            self.tally.fail(f"instant {instant}: delta for {name!r} missing or late")
        return [stamp for stamp, _ in raw]

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await asyncio.wait_for(self.writer.wait_closed(), 1.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass


# -- one round -----------------------------------------------------------------


@dataclass
class Cycle:
    """Timings of one closed-loop instant (seconds)."""

    tick: float  # server.tick() wall
    wire: list[float]  # tick start -> each delta line received
    service: float  # tick start -> last delta line received


class Round:
    """One fresh build of a workload, driven instant by instant."""

    def __init__(self, workload: Workload, seed: str, tally: Tally, engine: str = "shared"):
        self.workload = workload
        self.seed = seed
        self.tally = tally
        self.engine = engine
        self.config = city_config(workload, seed)
        self.rng = random.Random(f"{seed}:driver")
        self.register_s: list[float] = []
        self.clients: list[WireClient] = []
        self.locals: list[LocalSubscriber] = []
        self._removed: tuple | None = None
        #: Called with the instant after every cycle (oracle capture, trace cut).
        self.after_cycle = None

    # -- set-up ---------------------------------------------------------------------

    def build(self) -> None:
        """The default system: shared engine, row backend, ``observe``
        left at its default, with or without the per-zone pins."""
        workload = self.workload
        self.city = build_city(
            self.config, engine=self.engine, per_zone_queries=workload.per_zone_pack
        )
        self.pems = self.city.pems
        self.server = SubscriptionServer(self.pems, queue_depth=QUEUE_DEPTH)
        self.sql = wire_queries(self.seed, workload.wire_queries)

    async def prepare(self) -> None:
        """Subscriptions (cold, at instant 0), warm-up ticks, the timed
        registrations on the warm PEMS, settle ticks."""
        workload, server = self.workload, self.server
        await server.start()
        order = list(range(len(self.sql)))
        for c in range(workload.connections):
            client = WireClient(self.tally)
            await client.connect(server.host, server.port)
            self.rng.shuffle(order)
            for j in range(workload.wire_subs):
                index = order[j % len(order)]
                await client.subscribe(f"w{c}-{j}", self.sql[index], index)
            self.clients.append(client)
        speeds = [
            (speed, cadence) for speed, cadence, weight in CADENCES for _ in range(weight)
        ]
        self.rng.shuffle(order)  # which query a subscriber gets; counts stay even
        for i in range(workload.subscribers):
            speed, cadence = speeds[i % len(speeds)]
            sql = self.sql[order[i % len(order)]]
            subscription = server.subscribe(_Session(f"local{i}"), sql, f"s{i}")
            self.locals.append(LocalSubscriber(speed, cadence, subscription))
        self.queries = [server.queries[normalize_sql(sql)] for sql in self.sql]
        for _ in range(WARMUP_TICKS):
            await self.cycle()
        self._register_bank()
        for _ in range(SETTLE_TICKS):
            await self.cycle()

    def _register_bank(self) -> None:
        """Time ``register_continuous_sql`` on the warm PEMS: the bank
        stays registered, the probe is deregistered again (untimed) so
        the standing query set is the workload's own."""
        workload, processor = self.workload, self.pems.queries
        count = workload.bank + workload.probe
        for i, sql in enumerate(bank_queries(self.seed, self.config.zones, count)):
            name = f"bank-{i:03d}"
            self.tally.attempted += 1
            started = perf_counter()
            try:
                processor.register_continuous_sql(sql, name=name)
            except SerenaError as error:  # a rejected registration is a failed op
                self.tally.fail(f"registration of {sql!r} rejected: {error}")
                continue
            self.register_s.append(perf_counter() - started)
            if i >= workload.bank:
                processor.deregister_continuous(name)

    # -- the closed loop ---------------------------------------------------------------

    def _chaos(self, k: int) -> None:
        """Every ``DEREGISTER_EVERY`` timed ticks: deregister a few meters
        from one zone's Local ERM, re-register the previous batch."""
        if k % DEREGISTER_EVERY:
            return
        if self._removed is not None:
            erm, services = self._removed
            for service in services:
                erm.register(service)
        zones = self.config.zones
        zone = zones[(k // DEREGISTER_EVERY) % len(zones)]
        erm = self.pems.local_erms[f"grid-{zone}"]
        meters = [s for s in erm.services if s.implements(READ_LOAD)]
        picked = self.rng.sample(meters, min(DEREGISTER_COUNT, len(meters) // 2))
        for service in picked:
            erm.deregister(service.reference)
        self._removed = (erm, picked)

    async def cycle(self) -> Cycle:
        """One instant: tick, receive every expected delta line, drain
        the in-process subscribers that are due."""
        queries = self.queries
        published = [q.published for q in queries]
        started = perf_counter()
        instant = self.server.tick()
        ticked = perf_counter()
        changed = []
        for query, was_published in zip(queries, published):
            result = query.continuous.last_result
            if result is None or result.instant != instant:
                changed.append(False)
            elif not was_published:
                changed.append(bool(result.relation.tuples))
            else:
                changed.append(bool(query.continuous.last_reported_delta))
        stamps: list[float] = []
        receipts = await asyncio.gather(
            *(
                client.receive(
                    {n for n, q in client.subscriptions.items() if changed[q]}, instant
                )
                for client in self.clients
            )
        )
        for receipt in receipts:
            stamps.extend(receipt)
        done = max(stamps, default=ticked)
        if self.after_cycle is not None:
            # the whole instant, parsing of the received lines included
            self.after_cycle(instant, perf_counter() - started)
        for local in self.locals:
            if instant % local.cadence == 0:
                local.drain()
        return Cycle(ticked - started, [s - started for s in stamps], done - started)

    async def run(self, ticks: int) -> list[Cycle]:
        """The timed window: ``ticks`` instants, collector at defaults."""
        self.pems.queries.clear_failures()
        gc.collect()
        cycles = []
        for k in range(ticks):
            if self.workload.chaos:
                self._chaos(k)
            cycles.append(await self.cycle())
        return cycles

    def stream_rows(self) -> int:
        tables = self.pems.tables
        return sum(len(tables.relation(name)) for name in STREAMS)

    # -- invariants and teardown -------------------------------------------------------

    def verify(self, ticks: int) -> None:
        """After the window: no evaluation failed, every replica (wire
        and in-process, after a final drain) equals its query's result,
        the cadence classes coalesced as designed, chaos rebound."""
        tally = self.tally
        tally.attempted += ticks
        failures = self.pems.queries.failures
        if failures:
            tally.fail(f"{len(failures)} query failures, first: {failures[0]}", len(failures))
        truth = [
            frozenset(q.continuous.last_result.relation.tuples) for q in self.queries
        ]
        for client in self.clients:
            for name, index in client.subscriptions.items():
                tally.check(
                    client.replicas[name] == truth[index],
                    f"wire replica {name!r} differs from its query result",
                )
        by_sql = {q.key: t for q, t in zip(self.queries, truth)}
        for local in self.locals:
            local.drain()
            queue = local.subscription.queue
            tally.check(
                local.state == by_sql[local.subscription.query.key]
                and (queue.coalesced > 0) == (local.cadence > QUEUE_DEPTH),
                f"in-process {local.speed} subscriber {local.subscription.name!r}: "
                f"replica differs or coalesced={queue.coalesced} is off its class",
            )
        if self.workload.chaos:
            history = self.pems.erm.substitution_report()["history"]
            tally.check(bool(history), "fleet_chaos recorded no substitution rebind")

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.shutdown()
