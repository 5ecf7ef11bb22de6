"""The city's XD-Relation schemas and standing query pack.

The relations cover the fleet two ways:

* ``meters`` / ``relays`` / ``stations`` / ``weather_stations`` /
  ``alert_sinks`` — discovery-maintained service tables (Section 5.1),
  their real columns filled from each service's discovery properties;
* ``load_readings`` / ``station_telemetry`` / ``relay_telemetry`` /
  ``weather_telemetry`` — the infinite streams the
  :class:`~repro.city.devices.FleetTelemetryFeeder` instances push each
  tick *through the service registry* — so every invocation failure is
  recorded on a per-tick path, quarantine and the substitution failover
  engage identically on every engine, and a crashed-but-substituted
  station keeps flowing (zero missed readings);
* ``zone_thresholds`` — the static per-zone overload limits.

The standing pack exercises every operator family the engines were
built for, fleet-wide:

``zone-load``
    Per-zone α aggregation over the metered load window.
``overloads``
    σ/⋈ alert correlation: zone averages joined with thresholds,
    filtered, then an **active** β invocation raising alerts at every
    registered sink.
``station-health`` / ``relay-health`` / ``storm-watch``
    W(1) sweeps over the telemetry streams (with σ on top for the
    latter two) — the rows the cascade and the substitution registry
    have to keep flowing.
``station-capacity``
    A one-shot β invocation sweep over the ``stations`` discovery
    table: under the delta contract a β over an unchanged input is
    *not* re-invoked, so this reads each station's nameplate capacity
    once at discovery and carries it.
``zone-meters:<zone>`` / ``zone-load:<zone>``
    Optional per-zone pinned queries: a σ on ``zone`` above the scan.
"""

from __future__ import annotations

from repro.algebra.builder import scan
from repro.algebra.formula import col
from repro.algebra.query import Query
from repro.city.devices import (
    CHECK_RELAY,
    RAISE_ALERT,
    READ_LOAD,
    READ_STATION,
    READ_WEATHER,
)
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

__all__ = [
    "meters_schema",
    "relays_schema",
    "stations_schema",
    "weather_schema",
    "alert_sinks_schema",
    "load_readings_schema",
    "station_telemetry_schema",
    "relay_telemetry_schema",
    "weather_telemetry_schema",
    "zone_thresholds_schema",
    "build_query_pack",
]


def meters_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "meters",
        [
            Attribute("meter", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("feeder", DataType.STRING),
            Attribute("load", DataType.REAL),
        ],
        virtual={"load"},
        binding_patterns=[BindingPattern(READ_LOAD, "meter")],
    )


def relays_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "relays",
        [
            Attribute("relay", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("status", DataType.STRING),
            Attribute("throughput", DataType.REAL),
        ],
        virtual={"status", "throughput"},
        binding_patterns=[BindingPattern(CHECK_RELAY, "relay")],
    )


def stations_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "stations",
        [
            Attribute("station", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("capacity", DataType.REAL),
            Attribute("utilization", DataType.REAL),
        ],
        virtual={"capacity", "utilization"},
        binding_patterns=[BindingPattern(READ_STATION, "station")],
    )


def weather_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "weather_stations",
        [
            Attribute("station", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("temperature", DataType.REAL),
            Attribute("wind", DataType.REAL),
        ],
        virtual={"temperature", "wind"},
        binding_patterns=[BindingPattern(READ_WEATHER, "station")],
    )


def alert_sinks_schema() -> ExtendedRelationSchema:
    """Alert gateways.  ``zone`` and ``load`` are *virtual* here — the
    §5.2 "photo with a message" idiom: joining with the overload rows
    (real ``zone``/``load``) realizes them, which is what enables the
    ``raiseAlert`` binding pattern."""
    return ExtendedRelationSchema(
        "alert_sinks",
        [
            Attribute("sink", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("load", DataType.REAL),
            Attribute("ack", DataType.BOOLEAN),
        ],
        virtual={"zone", "load", "ack"},
        binding_patterns=[BindingPattern(RAISE_ALERT, "sink")],
    )


def load_readings_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "load_readings",
        [
            Attribute("meter", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("feeder", DataType.STRING),
            Attribute("load", DataType.REAL),
            Attribute("at", DataType.TIMESTAMP),
        ],
    )


def station_telemetry_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "station_telemetry",
        [
            Attribute("station", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("capacity", DataType.REAL),
            Attribute("utilization", DataType.REAL),
            Attribute("at", DataType.TIMESTAMP),
        ],
    )


def relay_telemetry_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "relay_telemetry",
        [
            Attribute("relay", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("status", DataType.STRING),
            Attribute("throughput", DataType.REAL),
            Attribute("at", DataType.TIMESTAMP),
        ],
    )


def weather_telemetry_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "weather_telemetry",
        [
            Attribute("station", DataType.SERVICE),
            Attribute("zone", DataType.STRING),
            Attribute("temperature", DataType.REAL),
            Attribute("wind", DataType.REAL),
            Attribute("at", DataType.TIMESTAMP),
        ],
    )


def zone_thresholds_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "zone_thresholds",
        [
            Attribute("zone", DataType.STRING),
            Attribute("threshold", DataType.REAL),
        ],
    )


def build_query_pack(
    env, zones: tuple[str, ...] = (), per_zone: bool = True
) -> dict[str, Query]:
    """The standing fleet-wide queries over an environment holding the
    city relations.  ``zones`` (with ``per_zone=True``) adds the pinned
    per-zone queries."""
    pack: dict[str, Query] = {}
    pack["zone-load"] = (
        scan(env, "load_readings")
        .window(1)
        .aggregate(
            ["zone"], ("avg", "load", "avg_load"), ("count", None, "readings")
        )
        .query("zone-load")
    )
    pack["overloads"] = (
        scan(env, "load_readings")
        .window(1)
        .aggregate(["zone"], ("avg", "load", "avg_load"))
        .join(scan(env, "zone_thresholds"))
        .select(col("avg_load").gt(col("threshold")))
        .rename("avg_load", "load")
        .project("zone", "load")
        .join(scan(env, "alert_sinks"))
        .invoke("raiseAlert", "sink", on_error="skip")
        .query("overloads")
    )
    pack["station-health"] = (
        scan(env, "station_telemetry")
        .window(1)
        .project("station", "zone", "capacity", "utilization")
        .query("station-health")
    )
    pack["relay-health"] = (
        scan(env, "relay_telemetry")
        .window(1)
        .select(col("status").eq("closed"))
        .project("relay", "zone", "throughput")
        .query("relay-health")
    )
    pack["storm-watch"] = (
        scan(env, "weather_telemetry")
        .window(1)
        .select(col("wind").ge(6.0))
        .project("station", "zone", "temperature", "wind")
        .query("storm-watch")
    )
    pack["station-capacity"] = (
        scan(env, "stations")
        .invoke("readStation", "station", on_error="skip")
        .project("station", "zone", "capacity")
        .query("station-capacity")
    )
    if per_zone:
        for zone in zones:
            pack[f"zone-meters:{zone}"] = (
                scan(env, "meters")
                .select(col("zone").eq(zone))
                .project("meter", "zone", "feeder")
                .query(f"zone-meters:{zone}")
            )
            pack[f"zone-load:{zone}"] = (
                scan(env, "load_readings")
                .window(1)
                .select(col("zone").eq(zone))
                .aggregate(
                    ["zone"], ("avg", "load", "avg_load"), ("count", None, "readings")
                )
                .query(f"zone-load:{zone}")
            )
    return pack
