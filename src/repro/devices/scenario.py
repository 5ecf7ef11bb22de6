"""Ready-made experimental environments reproducing Section 5.2.

Two builders assemble a full PEMS topology with simulated devices:

* :func:`build_temperature_surveillance` — the temperature surveillance
  scenario: sensors, cameras, messengers, the four XD-Relations
  (``cameras``, ``surveillance``, ``contacts``, ``temperatures``) plus a
  discovery-maintained ``sensors`` table, and (optionally) the two
  continuous queries of the experiment: alerting managers by message and
  photographing cold areas.

* :func:`build_rss_scenario` — the RSS feed scenario: seeded feeds for
  "lemonde", "lefigaro" and "cnn-europe" polled into a ``news`` stream, a
  keyword query with a one-hour window, and message delivery to a contact.

Both return a :class:`Scenario` handle exposing the PEMS, the devices and
the registered continuous queries, so tests, examples and benchmarks can
drive the clock and inspect every side effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.builder import scan
from repro.algebra.formula import col
from repro.algebra.query import Query
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.cameras import Camera
from repro.devices.messengers import Messenger, Outbox, email_service, jabber_service, sms_service
from repro.devices.prototypes import (
    CHECK_PHOTO,
    GET_ENV_READING,
    GET_TEMPERATURE,
    SEND_MESSAGE,
    SEND_PHOTO_MESSAGE,
    STANDARD_PROTOTYPES,
    TAKE_PHOTO,
)
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.rss import DEFAULT_SITES, RssFeed, RssStreamWrapper
from repro.devices.sensors import (
    EnvironmentalSensor,
    SensorStreamFeeder,
    TemperatureSensor,
)
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.invocation_policy import InvocationPolicy
from repro.model.substitution import SubstitutionRule
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS


__all__ = [
    "Scenario",
    "build_temperature_surveillance",
    "build_rss_scenario",
    "sensors_schema",
    "cameras_schema",
    "contacts_schema",
    "surveillance_schema",
    "temperatures_schema",
    "news_schema",
]


# ---------------------------------------------------------------------------
# Schemas (Table 2 + the scenario tables of Section 5.2)
# ---------------------------------------------------------------------------


def contacts_schema(with_photo: bool = False) -> ExtendedRelationSchema:
    """The ``contacts`` X-Relation schema of Table 2.

    With ``with_photo=True`` the schema gains the "additional attribute
    allowing to send a picture with a message" of §5.2: a virtual
    ``photo`` BLOB and a ``sendPhotoMessage[messenger]`` binding pattern
    whose input it is.  A join that realizes ``photo`` (e.g. with the
    output of ``takePhoto``) enables the pattern.
    """
    attributes = [
        Attribute("name", DataType.STRING),
        Attribute("address", DataType.STRING),
        Attribute("text", DataType.STRING),
        Attribute("messenger", DataType.SERVICE),
        Attribute("sent", DataType.BOOLEAN),
    ]
    virtual = {"text", "sent"}
    binding_patterns = [BindingPattern(SEND_MESSAGE, "messenger")]
    if with_photo:
        attributes.insert(3, Attribute("photo", DataType.BLOB))
        virtual.add("photo")
        binding_patterns.append(BindingPattern(SEND_PHOTO_MESSAGE, "messenger"))
    return ExtendedRelationSchema(
        "contacts",
        attributes,
        virtual=virtual,
        binding_patterns=binding_patterns,
    )


def cameras_schema() -> ExtendedRelationSchema:
    """The ``cameras`` X-Relation schema of Table 2."""
    return ExtendedRelationSchema(
        "cameras",
        [
            Attribute("camera", DataType.SERVICE),
            Attribute("area", DataType.STRING),
            Attribute("quality", DataType.INTEGER),
            Attribute("delay", DataType.REAL),
            Attribute("photo", DataType.BLOB),
        ],
        virtual={"quality", "delay", "photo"},
        binding_patterns=[
            BindingPattern(CHECK_PHOTO, "camera"),
            BindingPattern(TAKE_PHOTO, "camera"),
        ],
    )


def sensors_schema(with_timestamp: bool = False) -> ExtendedRelationSchema:
    """The sensor list of Section 1.2: discovery-maintained.

    With ``with_timestamp=True`` the schema gains a virtual ``at``
    TIMESTAMP attribute, which the streaming-binding-pattern operator
    (``β∞``, see :mod:`repro.algebra.operators.stream_invocation`) realizes
    with the emission instant — giving the ``temperatures`` stream shape
    directly from the sensors table.
    """
    attributes = [
        Attribute("sensor", DataType.SERVICE),
        Attribute("location", DataType.STRING),
        Attribute("temperature", DataType.REAL),
    ]
    virtual = {"temperature"}
    if with_timestamp:
        attributes.append(Attribute("at", DataType.TIMESTAMP))
        virtual.add("at")
    return ExtendedRelationSchema(
        "sensors",
        attributes,
        virtual=virtual,
        binding_patterns=[BindingPattern(GET_TEMPERATURE, "sensor")],
    )


def surveillance_schema() -> ExtendedRelationSchema:
    """Who manages which location, and above which temperature to alert."""
    return ExtendedRelationSchema(
        "surveillance",
        [
            Attribute("name", DataType.STRING),
            Attribute("location", DataType.STRING),
            Attribute("threshold", DataType.REAL),
        ],
    )


def temperatures_schema() -> ExtendedRelationSchema:
    """The ``temperatures`` stream: periodic localized readings."""
    return ExtendedRelationSchema(
        "temperatures",
        [
            Attribute("sensor", DataType.SERVICE),
            Attribute("location", DataType.STRING),
            Attribute("temperature", DataType.REAL),
            Attribute("at", DataType.TIMESTAMP),
        ],
    )


def news_schema() -> ExtendedRelationSchema:
    """The ``news`` stream of the RSS scenario."""
    return ExtendedRelationSchema(
        "news",
        [
            Attribute("site", DataType.STRING),
            Attribute("title", DataType.STRING),
            Attribute("published", DataType.TIMESTAMP),
        ],
    )


# ---------------------------------------------------------------------------
# Scenario handle
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A built scenario: the PEMS plus everything worth inspecting."""

    pems: PEMS
    outbox: Outbox
    sensors: dict[str, TemperatureSensor] = field(default_factory=dict)
    cameras: dict[str, Camera] = field(default_factory=dict)
    messengers: dict[str, Messenger] = field(default_factory=dict)
    feeds: dict[str, RssFeed] = field(default_factory=dict)
    queries: dict[str, ContinuousQuery] = field(default_factory=dict)
    injectors: dict[str, FaultInjector] = field(default_factory=dict)
    spares: dict[str, EnvironmentalSensor] = field(default_factory=dict)

    @property
    def environment(self):
        return self.pems.environment

    @property
    def clock(self):
        return self.pems.clock

    def run(self, instants: int) -> int:
        """Advance the scenario clock."""
        return self.pems.run(instants)

    def add_sensor(
        self, reference: str, location: str, base: float = 20.0, erm_name: str = "field"
    ) -> TemperatureSensor:
        """Hot-plug a new temperature sensor at the current instant.

        The sensor is announced through its Local ERM, discovered by the
        core ERM, added to the ``sensors`` table by the discovery query and
        starts feeding the ``temperatures`` stream — all without stopping
        any registered continuous query (the Section 5.2 experiment).
        """
        sensor = TemperatureSensor(reference, location, base)
        self.sensors[reference] = sensor
        self.pems.create_local_erm(erm_name).register(sensor.as_service())
        return sensor

    def remove_sensor(self, reference: str, erm_name: str = "field") -> None:
        """Gracefully unplug a sensor (bye announcement)."""
        self.pems.create_local_erm(erm_name).deregister(reference)
        self.sensors.pop(reference, None)


# ---------------------------------------------------------------------------
# Temperature surveillance (Section 5.2, first experiment)
# ---------------------------------------------------------------------------

_DEFAULT_SENSORS = (
    ("sensor01", "corridor", 19.0),
    ("sensor06", "office", 21.0),
    ("sensor07", "office", 21.5),
    ("sensor22", "roof", 15.0),
)

_DEFAULT_CAMERAS = (
    ("camera01", "office", 8, 0.4),
    ("camera02", "corridor", 6, 0.6),
    ("webcam07", "roof", 4, 1.2),
)

_DEFAULT_CONTACTS = (
    ("Nicolas", "nicolas@elysee.fr", "email"),
    ("Carla", "carla@elysee.fr", "email"),
    ("Francois", "francois@im.gouv.fr", "jabber"),
    ("Jacques", "+33600000007", "sms"),
)

#: (manager name, location, alert threshold °C).  The corridor has two
#: managers so the scenario exercises all three channels of §5.2
#: ("by mail, instant message or SMS"): heating it alerts Nicolas by
#: email AND Jacques by SMS.
_DEFAULT_SURVEILLANCE = (
    ("Carla", "office", 28.0),
    ("Nicolas", "corridor", 30.0),
    ("Jacques", "corridor", 30.0),
    ("Francois", "roof", 26.0),
)


def build_temperature_surveillance(
    with_queries: bool = True,
    alert_text: str = "Hot!",
    photo_threshold: float = 12.0,
    messenger_failure_rate: float = 0.0,
    with_photo_messages: bool = False,
    engine: str = "shared",
    policy: InvocationPolicy | None = None,
    sensor_faults: dict[str, FaultScript] | None = None,
    fault_seed: object = "chaos",
    observe: object = None,
    spare_sensors: tuple[tuple[str, str, float], ...] = (),
    substitutions: tuple[SubstitutionRule, ...] = (),
) -> Scenario:
    """Assemble the full temperature surveillance environment.

    With ``with_queries=True`` the two continuous queries of the
    experiment are registered:

    * ``alerts`` (Q3-style, with per-manager routing): when a temperature
      in the window exceeds the location's surveillance threshold, send
      ``alert_text`` to the location's manager via their messenger;
    * ``cold-photos`` (Q4-style): when a temperature goes below
      ``photo_threshold``, check the location's cameras and take a photo
      wherever the expected quality is at least 5 — the result is a stream
      of photos.

    With ``with_photo_messages=True`` the contacts table carries the §5.2
    "picture with a message" attribute and a third continuous query,
    ``photo-alerts``, sends each cold-area photo to the area's manager via
    ``sendPhotoMessage`` (the photo realized by ``takePhoto`` flows into
    the contacts binding pattern through the join's implicit realization).

    ``engine`` is one of :data:`~repro.exec.lowering.ENGINES` and
    ``policy`` the fault-tolerance invocation policy (see
    :class:`~repro.pems.pems.PEMS`).  ``sensor_faults`` maps sensor
    references to :class:`~repro.devices.faults.FaultScript`\\ s: those
    sensors are wrapped in a :class:`~repro.devices.faults.FaultInjector`
    (seeded with ``fault_seed``) before registration, so the scripted
    chaos flows through the same discovery/invocation path as the §5.2
    ``messenger_failure_rate`` flakiness.  ``observe`` sets the
    observability mode (see :class:`~repro.pems.pems.PEMS`).

    ``spare_sensors`` registers ``(reference, location, base)``
    environmental stations (``getEnvReading`` only — they never join the
    ``sensors`` table on their own) and ``substitutions`` declares
    substitution rules with the core ERM, so a scripted permanent crash
    (``FaultScript(crash_at=...)``) exercises the full semantic-rebinding
    path: quarantine → sticky rebind → projected spare readings.
    """
    pems = PEMS(engine=engine, policy=policy, observe=observe)
    env = pems.environment
    for prototype in STANDARD_PROTOTYPES:
        env.declare_prototype(prototype)
    if spare_sensors:
        env.declare_prototype(GET_ENV_READING)

    outbox = Outbox()
    scenario = Scenario(pems, outbox)

    # Distributed topology: one Local ERM per "floor", one for gateways.
    field_erm = pems.create_local_erm("field")
    gateway_erm = pems.create_local_erm("gateway")

    for reference, location, base in _DEFAULT_SENSORS:
        sensor = TemperatureSensor(reference, location, base)
        scenario.sensors[reference] = sensor
        registered = sensor.as_service()
        script = (sensor_faults or {}).get(reference)
        if script is not None:
            injector = FaultInjector(registered, script, seed=fault_seed)
            scenario.injectors[reference] = injector
            registered = injector.as_service()
        field_erm.register(registered)
    for reference, location, base in spare_sensors:
        spare = EnvironmentalSensor(reference, location, base)
        scenario.spares[reference] = spare
        field_erm.register(spare.as_service())
    for rule in substitutions:
        pems.declare_substitution(rule)
    for reference, area, quality, delay in _DEFAULT_CAMERAS:
        camera = Camera(reference, area, quality, delay)
        scenario.cameras[reference] = camera
        field_erm.register(camera.as_service())
    for messenger in (
        email_service(outbox, messenger_failure_rate),
        jabber_service(outbox, messenger_failure_rate),
        sms_service(outbox, messenger_failure_rate),
    ):
        scenario.messengers[messenger.reference] = messenger
        gateway_erm.register(messenger.as_service())

    # XD-Relations of the experiment.
    tables = pems.tables
    tables.create_relation(sensors_schema())
    tables.create_relation(cameras_schema())
    tables.create_relation(contacts_schema(with_photo=with_photo_messages))
    tables.create_relation(surveillance_schema())
    tables.create_relation(temperatures_schema(), infinite=True)

    tables.insert(
        "contacts",
        [
            {"name": n, "address": a, "messenger": m}
            for n, a, m in _DEFAULT_CONTACTS
        ],
    )
    tables.insert(
        "surveillance",
        [
            {"name": n, "location": l, "threshold": t}
            for n, l, t in _DEFAULT_SURVEILLANCE
        ],
    )

    # Discovery queries keep the sensors and cameras tables synchronized
    # with the available services (Section 5.1).
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    pems.queries.register_discovery("checkPhoto", "cameras", "camera")

    # The temperatures stream is fed from the discovered sensors each tick.
    feeder = SensorStreamFeeder(
        env.registry, lambda rows: tables.insert("temperatures", rows)
    )
    pems.add_stream_source(feeder)

    if with_queries:
        alerts = (
            scan(env, "temperatures")
            .window(1)
            .join(scan(env, "surveillance"))
            .select(col("temperature").gt(col("threshold")))
            .join(scan(env, "contacts"))
            .assign("text", alert_text)
            .invoke("sendMessage", on_error="skip")
            .query("alerts")
        )
        cold_photos = (
            scan(env, "temperatures")
            .window(1)
            .select(col("temperature").lt(photo_threshold))
            .rename("location", "area")
            .join(scan(env, "cameras"))
            .invoke("checkPhoto", on_error="skip")
            .select(col("quality").ge(5))
            .invoke("takePhoto", on_error="skip")
            .project("area", "camera", "quality", "photo", "at")
            .stream("insertion")
            .query("cold-photos")
        )
        scenario.queries["alerts"] = pems.queries.register_continuous(alerts)
        scenario.queries["cold-photos"] = pems.queries.register_continuous(
            cold_photos
        )
        if with_photo_messages:
            # Cold-photo pipeline ⋈ surveillance (who manages the area)
            # ⋈ contacts: the takePhoto-realized 'photo' meets contacts'
            # virtual 'photo' in the join — implicit realization feeds the
            # sendPhotoMessage binding pattern.
            photo_alerts = (
                scan(env, "temperatures")
                .window(1)
                .select(col("temperature").lt(photo_threshold))
                .rename("location", "area")
                .join(scan(env, "cameras"))
                .invoke("checkPhoto", on_error="skip")
                .select(col("quality").ge(5))
                .invoke("takePhoto", on_error="skip")
                .join(
                    scan(env, "surveillance").rename("location", "area")
                )
                .join(scan(env, "contacts"))
                .assign("text", "Cold area photo attached")
                .invoke("sendPhotoMessage", on_error="skip")
                .query("photo-alerts")
            )
            scenario.queries["photo-alerts"] = pems.queries.register_continuous(
                photo_alerts
            )

    return scenario


# ---------------------------------------------------------------------------
# RSS feeds (Section 5.2, second experiment)
# ---------------------------------------------------------------------------


def build_rss_scenario(
    keyword: str = "Obama",
    window: int = 60,
    sites: tuple[str, ...] = DEFAULT_SITES,
    rate: float = 0.2,
    recipient: str = "Carla",
    with_queries: bool = True,
    seed: int = 0,
    engine: str = "shared",
    policy: InvocationPolicy | None = None,
    observe: object = None,
) -> Scenario:
    """Assemble the RSS experiment: feeds → news stream → keyword query.

    The ``matching-news`` query keeps, with a ``window``-instant window
    (one hour in the paper), the news items whose title contains
    ``keyword``; the ``news-alerts`` query forwards each matching headline
    once to ``recipient`` via their messenger.

    ``engine`` is one of :data:`~repro.exec.lowering.ENGINES`.
    """
    pems = PEMS(engine=engine, policy=policy, observe=observe)
    env = pems.environment
    for prototype in STANDARD_PROTOTYPES:
        env.declare_prototype(prototype)

    outbox = Outbox()
    scenario = Scenario(pems, outbox)

    gateway_erm = pems.create_local_erm("gateway")
    for messenger in (email_service(outbox), jabber_service(outbox)):
        scenario.messengers[messenger.reference] = messenger
        gateway_erm.register(messenger.as_service())

    tables = pems.tables
    tables.create_relation(contacts_schema())
    tables.create_relation(news_schema(), infinite=True)
    tables.insert(
        "contacts",
        [
            {"name": n, "address": a, "messenger": m}
            for n, a, m in _DEFAULT_CONTACTS
        ],
    )

    feeds = [RssFeed(site, rate, seed) for site in sites]
    for feed in feeds:
        scenario.feeds[feed.site] = feed
    wrapper = RssStreamWrapper(
        feeds, lambda rows: tables.insert("news", rows)
    )
    pems.add_stream_source(wrapper)

    if with_queries:
        matching = (
            scan(env, "news")
            .window(window)
            .select(col("title").contains(keyword))
            .query("matching-news")
        )
        scenario.queries["matching-news"] = pems.queries.register_continuous(
            matching
        )
        news_alerts = (
            scan(env, "news")
            .window(window)
            .select(col("title").contains(keyword))
            .join(
                scan(env, "contacts").select(col("name").eq(recipient))
            )
            .assign_from("text", "title")
            .invoke("sendMessage", on_error="skip")
            .query("news-alerts")
        )
        scenario.queries["news-alerts"] = pems.queries.register_continuous(
            news_alerts
        )

    return scenario
