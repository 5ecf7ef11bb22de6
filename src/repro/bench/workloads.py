"""Parametric workload generators for the benchmark harness.

The paper defers a quantitative evaluation ("no benchmark can be used for
that purpose", Section 5.2) and announces a pervasive-environment benchmark
for *hybrid queries* involving data and services (the OPTIMACS project,
Section 7).  This module provides that missing workload generator:

* :func:`build_surveillance_workload` — a scaled temperature-surveillance
  environment: N sensors over L locations, M contacts/managers, K cameras,
  with the standard alert query registered; used for throughput/latency
  sweeps (experiment X1 of DESIGN.md).

* :func:`random_environment` — a randomized, seeded relational pervasive
  environment with generic passive and active prototypes and tables bound
  to them; used by property-based equivalence tests and the rewriting
  benchmarks (experiment T5/X2).
"""

from __future__ import annotations

from repro.devices.cameras import Camera
from repro.devices.determinism import stable_int, stable_unit
from repro.devices.messengers import Outbox, email_service, jabber_service, sms_service
from repro.devices.prototypes import STANDARD_PROTOTYPES
from repro.devices.scenario import (
    Scenario,
    cameras_schema,
    contacts_schema,
    sensors_schema,
    surveillance_schema,
    temperatures_schema,
)
from repro.devices.sensors import SensorStreamFeeder, TemperatureSensor
from repro.algebra.builder import scan
from repro.algebra.formula import col
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.model.relation import XRelation
from repro.model.schema import RelationSchema
from repro.model.services import Service
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS

__all__ = ["build_surveillance_workload", "random_environment", "RandomEnvironment"]


def build_surveillance_workload(
    num_sensors: int = 20,
    num_contacts: int = 5,
    num_cameras: int = 5,
    num_locations: int = 5,
    threshold: float = 28.0,
    hot_fraction: float = 0.2,
    with_queries: bool = True,
    seed: int = 0,
) -> Scenario:
    """A scaled surveillance environment.

    ``hot_fraction`` of the sensors run permanently hot (base temperature
    above ``threshold``), so every tick produces a predictable share of
    alert-triggering readings — the load knob of the throughput sweeps.
    """
    pems = PEMS()
    env = pems.environment
    for prototype in STANDARD_PROTOTYPES:
        env.declare_prototype(prototype)
    outbox = Outbox()
    scenario = Scenario(pems, outbox)

    locations = [f"room{i:02d}" for i in range(num_locations)]
    field_erm = pems.create_local_erm("field")
    gateway_erm = pems.create_local_erm("gateway")

    hot_count = int(num_sensors * hot_fraction)
    for i in range(num_sensors):
        location = locations[i % num_locations]
        base = threshold + 4.0 if i < hot_count else threshold - 8.0
        sensor = TemperatureSensor(f"sensor{i:03d}", location, base)
        scenario.sensors[sensor.reference] = sensor
        field_erm.register(sensor.as_service())
    for i in range(num_cameras):
        camera = Camera(f"camera{i:03d}", locations[i % num_locations])
        scenario.cameras[camera.reference] = camera
        field_erm.register(camera.as_service())

    channels = [email_service(outbox), jabber_service(outbox), sms_service(outbox)]
    for messenger in channels:
        scenario.messengers[messenger.reference] = messenger
        gateway_erm.register(messenger.as_service())

    tables = pems.tables
    tables.create_relation(sensors_schema())
    tables.create_relation(cameras_schema())
    tables.create_relation(contacts_schema())
    tables.create_relation(surveillance_schema())
    tables.create_relation(temperatures_schema(), infinite=True)

    tables.insert(
        "contacts",
        [
            {
                "name": f"manager{i:02d}",
                "address": f"manager{i:02d}@example.org",
                "messenger": channels[i % len(channels)].reference,
            }
            for i in range(num_contacts)
        ],
    )
    tables.insert(
        "surveillance",
        [
            {
                "name": f"manager{i % num_contacts:02d}",
                "location": locations[i],
                "threshold": threshold,
            }
            for i in range(num_locations)
        ],
    )

    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    pems.queries.register_discovery("checkPhoto", "cameras", "camera")
    pems.add_stream_source(SensorStreamFeeder(env.registry, tables))

    if with_queries:
        alerts = (
            scan(env, "temperatures")
            .window(1)
            .join(scan(env, "surveillance"))
            .select(col("temperature").gt(col("threshold")))
            .join(scan(env, "contacts"))
            .assign("text", "Hot!")
            .invoke("sendMessage", on_error="skip")
            .query("alerts")
        )
        scenario.queries["alerts"] = pems.queries.register_continuous(alerts)
    return scenario


# ---------------------------------------------------------------------------
# Randomized environments for equivalence checking
# ---------------------------------------------------------------------------

#: The generic environment wraps everything needed to build plans on it.
class RandomEnvironment:
    """A seeded random relational pervasive environment.

    Contains one X-Relation ``items`` with:

    * real attributes ``item`` (SERVICE), ``category`` (STRING),
      ``size`` (INTEGER);
    * virtual attributes ``score`` (REAL, output of the passive
      ``getScore`` prototype) and ``done`` (BOOLEAN, output of the active
      ``doWork`` prototype with input ``category``);

    and a second plain relation ``categories(category, priority)`` to join
    with.  Services are deterministic functions of (reference, instant).
    """

    def __init__(self, seed: int = 0, num_items: int = 8, num_services: int = 4):
        self.seed = seed
        self.get_score = Prototype(
            "getScore", RelationSchema(()), RelationSchema.of(score="REAL")
        )
        self.do_work = Prototype(
            "doWork",
            RelationSchema.of(category="STRING"),
            RelationSchema.of(done="BOOLEAN"),
            active=True,
        )
        self.work_log: list[tuple[str, str, int]] = []

        env = PervasiveEnvironment()
        env.declare_prototype(self.get_score)
        env.declare_prototype(self.do_work)

        for i in range(num_services):
            reference = f"svc{i:02d}"
            env.register_service(self._make_service(reference))

        items_schema = ExtendedRelationSchema(
            "items",
            [
                Attribute("item", DataType.SERVICE),
                Attribute("category", DataType.STRING),
                Attribute("size", DataType.INTEGER),
                Attribute("score", DataType.REAL),
                Attribute("done", DataType.BOOLEAN),
            ],
            virtual={"score", "done"},
            binding_patterns=[
                BindingPattern(self.get_score, "item"),
                BindingPattern(self.do_work, "item"),
            ],
        )
        categories = ("alpha", "beta", "gamma")
        rows = []
        for i in range(num_items):
            rows.append(
                {
                    "item": f"svc{stable_int(num_services, seed, 'svc', i):02d}",
                    "category": categories[stable_int(len(categories), seed, "cat", i)],
                    "size": stable_int(50, seed, "size", i),
                }
            )
        env.add_relation(XRelation.from_mappings(items_schema, rows))

        categories_schema = ExtendedRelationSchema(
            "categories",
            [
                Attribute("category", DataType.STRING),
                Attribute("priority", DataType.INTEGER),
            ],
        )
        env.add_relation(
            XRelation.from_mappings(
                categories_schema,
                [
                    {"category": c, "priority": stable_int(5, seed, "prio", c)}
                    for c in categories
                ],
            )
        )
        self.environment = env
        self.items_schema = items_schema

    def _make_service(self, reference: str) -> Service:
        def get_score(inputs, instant):
            return [{"score": round(stable_unit(reference, "score", instant) * 10, 3)}]

        def do_work(inputs, instant):
            self.work_log.append((reference, str(inputs["category"]), instant))
            return [{"done": stable_unit(reference, "work", instant) > 0.2}]

        return Service(reference, {self.get_score: get_score, self.do_work: do_work})


def random_environment(seed: int = 0, num_items: int = 8) -> RandomEnvironment:
    """Build a :class:`RandomEnvironment` (seeded, deterministic)."""
    return RandomEnvironment(seed, num_items)
