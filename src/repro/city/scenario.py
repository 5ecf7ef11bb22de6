"""Assemble a generated city on either engine.

``build_city`` is the city analogue of
:func:`repro.devices.scenario.build_temperature_surveillance`: one call
expands the config into a topology, instantiates and registers every
device (wrapping churned and cascade-affected ones in
:class:`~repro.devices.faults.FaultInjector`), declares the spare
substitution rules, creates the relations, wires the per-prototype
telemetry streams and registers the standing query pack.  The returned
:class:`CityScenario` drives the clock and exposes everything worth
asserting on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.city.cascade import CascadeSchedule
from repro.city.config import CityConfig
from repro.city.devices import (
    CHECK_RELAY,
    CITY_PROTOTYPES,
    READ_LOAD,
    READ_STATION,
    READ_WEATHER,
    AlertLog,
    AlertSink,
    FleetTelemetryFeeder,
    GridRelay,
    SmartMeter,
    SpareStation,
    Substation,
    WeatherStation,
    load_columns,
    relay_columns,
    station_columns,
    weather_columns,
)
from repro.city.generator import CityTopology, generate_topology
from repro.city.queries import (
    alert_sinks_schema,
    build_query_pack,
    load_readings_schema,
    meters_schema,
    relay_telemetry_schema,
    relays_schema,
    station_telemetry_schema,
    stations_schema,
    weather_schema,
    weather_telemetry_schema,
    zone_thresholds_schema,
)
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.faults import FaultInjector, FaultScript
from repro.model.invocation_policy import InvocationPolicy
from repro.model.substitution import SubstitutionRule
from repro.pems.pems import PEMS

__all__ = ["CityScenario", "build_city", "city_policy"]


def city_policy() -> InvocationPolicy:
    """The default fault-tolerance policy for cities with chaos: one
    failure suspends a device, the quarantine backoff leaves room for a
    substitution rebind inside a 55-tick run."""
    return InvocationPolicy(failure_threshold=1)


@dataclass
class CityScenario:
    """A built city: the PEMS plus everything worth inspecting."""

    pems: PEMS
    config: CityConfig
    topology: CityTopology
    alerts: AlertLog
    queries: dict[str, ContinuousQuery] = field(default_factory=dict)
    devices: dict[str, object] = field(default_factory=dict)
    injectors: dict[str, FaultInjector] = field(default_factory=dict)
    cascade: CascadeSchedule | None = None

    @property
    def environment(self):
        return self.pems.environment

    @property
    def clock(self):
        return self.pems.clock

    def run(self, instants: int) -> int:
        """Advance the city clock."""
        return self.pems.run(instants)


def build_city(
    config: CityConfig,
    engine: str = "shared",
    policy: InvocationPolicy | None = None,
    with_queries: bool = True,
    per_zone_queries: bool = True,
) -> CityScenario:
    """Expand ``config`` and assemble the full city environment.

    ``engine`` is one of :data:`~repro.exec.lowering.ENGINES` (``naive``
    / ``shared``).  ``policy`` defaults to :func:`city_policy` whenever
    the config scripts chaos (churn or a cascade) so quarantine and
    substitution actually engage; pass an explicit policy to override.
    """
    if policy is None and (config.churn_rate > 0.0 or config.cascade is not None):
        policy = city_policy()
    pems = PEMS(engine=engine, policy=policy)
    env = pems.environment
    for prototype in CITY_PROTOTYPES:
        env.declare_prototype(prototype)

    topology = generate_topology(config)
    alerts = AlertLog()
    scenario = CityScenario(pems, config, topology, alerts)
    cascade = (
        CascadeSchedule(config.cascade, topology)
        if config.cascade is not None
        else None
    )
    scenario.cascade = cascade
    churn_script = (
        FaultScript(failure_rate=config.churn_rate) if config.churn_rate else None
    )

    def register(erm, device, spec):
        scenario.devices[spec.reference] = device
        registered = device.as_service()
        script = cascade.script_for(spec.reference) if cascade is not None else None
        if script is None and spec.kind == "meter":
            script = churn_script
        if script is not None:
            injector = FaultInjector(registered, script, seed=config.seed)
            scenario.injectors[spec.reference] = injector
            registered = injector.as_service()
        erm.register(registered)

    # One Local ERM per zone, one for the city-wide operations center.
    for zone in config.zones:
        erm = pems.create_local_erm(f"grid-{zone}")
        for spec in topology.meters:
            if spec.zone != zone:
                continue
            meter = SmartMeter(
                spec.reference,
                zone,
                relay=str(spec.attr("relay")),
                base=float(spec.attr("base")),
                surge_factor=config.surge_factor,
                surge_period=config.surge_period,
                surge_width=config.surge_width,
                phase=int(spec.attr("phase")),
            )
            register(erm, meter, spec)
        for spec in topology.relays:
            if spec.zone == zone:
                register(
                    erm,
                    GridRelay(spec.reference, zone, rating=float(spec.attr("rating"))),
                    spec,
                )
        for spec in topology.stations:
            if spec.zone == zone:
                register(
                    erm,
                    Substation(
                        spec.reference, zone, capacity=float(spec.attr("capacity"))
                    ),
                    spec,
                )
        for spec in topology.spares:
            if spec.zone == zone:
                register(
                    erm,
                    SpareStation(
                        spec.reference, zone, capacity=float(spec.attr("capacity"))
                    ),
                    spec,
                )
        for spec in topology.weather:
            if spec.zone == zone:
                register(
                    erm,
                    WeatherStation(
                        spec.reference, zone, base_temp=float(spec.attr("base_temp"))
                    ),
                    spec,
                )
    ops_erm = pems.create_local_erm("ops")
    for spec in topology.sinks:
        register(ops_erm, AlertSink(spec.reference, alerts), spec)

    # Every station in a zone can fail over to every spare in its zone;
    # ranking (and the reference tie-break) picks the same spare on
    # every engine.
    for station in topology.stations:
        for spare in topology.spares:
            if spare.zone == station.zone:
                pems.declare_substitution(
                    SubstitutionRule(
                        "readStation",
                        spare.reference,
                        "readGridNode",
                        reference=station.reference,
                    )
                )

    tables = pems.tables
    tables.create_relation(meters_schema())
    tables.create_relation(relays_schema())
    tables.create_relation(stations_schema())
    tables.create_relation(weather_schema())
    tables.create_relation(alert_sinks_schema())
    tables.create_relation(zone_thresholds_schema())
    tables.create_relation(load_readings_schema(), infinite=True)
    tables.create_relation(station_telemetry_schema(), infinite=True)
    tables.create_relation(relay_telemetry_schema(), infinite=True)
    tables.create_relation(weather_telemetry_schema(), infinite=True)
    tables.insert(
        "zone_thresholds",
        [{"zone": zone, "threshold": t} for zone, t in topology.thresholds],
    )

    # Discovery keeps the service tables synchronized with the fleet.
    pems.queries.register_discovery("readLoad", "meters", "meter")
    pems.queries.register_discovery("checkRelay", "relays", "relay")
    pems.queries.register_discovery("readStation", "stations", "station")
    pems.queries.register_discovery("readWeather", "weather_stations", "station")
    pems.queries.register_discovery("raiseAlert", "alert_sinks", "sink")

    # The telemetry feeders poll every registered provider each tick
    # *through the registry*: failures are recorded (so the cascade's
    # crash quarantines and rebinds), substituted devices keep flowing,
    # and quarantined ones drop out of the stream for the episode.
    def feed(prototype, relation, columns):
        pems.add_stream_source(
            FleetTelemetryFeeder(env.registry, prototype, tables, relation, columns)
        )

    feed(READ_LOAD, "load_readings", load_columns)
    feed(READ_STATION, "station_telemetry", station_columns)
    feed(CHECK_RELAY, "relay_telemetry", relay_columns)
    feed(READ_WEATHER, "weather_telemetry", weather_columns)

    if with_queries:
        pack = build_query_pack(env, config.zones, per_zone=per_zone_queries)
        for name, query in pack.items():
            scenario.queries[name] = pems.queries.register_continuous(query)

    return scenario
