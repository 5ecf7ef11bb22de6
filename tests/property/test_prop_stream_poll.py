"""``StreamPoll`` tuples against the dict rows they replaced.

The reference is the poll loop ``StreamPoll`` used to be: per reading the
row ``{**columns(service), <output attribute>: value, ..., "at": τ}``,
which the stream insert then ordered with ``values_from_mapping``.  Two
twin fleets — same devices, same seeded fault scripts, same churn — are
polled instant by instant, one through ``StreamPoll``, one through the
reference, for the four city streams and the §5.2 ``temperatures``.
"""

from hypothesis import given, settings, strategies as st

from repro.city.devices import (
    CHECK_RELAY,
    READ_LOAD,
    READ_STATION,
    READ_WEATHER,
    GridRelay,
    SmartMeter,
    Substation,
    WeatherStation,
    load_columns,
    relay_columns,
    station_columns,
    weather_columns,
)
from repro.city.queries import (
    load_readings_schema,
    relay_telemetry_schema,
    station_telemetry_schema,
    weather_telemetry_schema,
)
from repro.city.scenario import city_policy
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import GET_TEMPERATURE
from repro.devices.scenario import temperatures_schema
from repro.devices.sensors import StreamPoll, TemperatureSensor, sensor_columns
from repro.errors import ServiceError
from repro.model.services import ServiceRegistry

#: stream -> (prototype, schema, columns, device factory(reference, zone)).
STREAMS = {
    "load_readings": (
        READ_LOAD,
        load_readings_schema(),
        load_columns,
        lambda ref, zone: SmartMeter(ref, zone, relay=f"relay-{zone}", base=40.0),
    ),
    "station_telemetry": (
        READ_STATION,
        station_telemetry_schema(),
        station_columns,
        lambda ref, zone: Substation(ref, zone, capacity=400.0),
    ),
    "relay_telemetry": (
        CHECK_RELAY,
        relay_telemetry_schema(),
        relay_columns,
        lambda ref, zone: GridRelay(ref, zone, rating=150.0),
    ),
    "weather_telemetry": (
        READ_WEATHER,
        weather_telemetry_schema(),
        weather_columns,
        lambda ref, zone: WeatherStation(ref, zone, base_temp=12.0),
    ),
    "temperatures": (
        GET_TEMPERATURE,
        temperatures_schema(),
        sensor_columns,
        lambda ref, zone: TemperatureSensor(ref, zone),
    ),
}

INSTANTS = 6

devices = st.lists(
    st.tuples(st.sampled_from(["z0", "z1", "z2"]), st.booleans()),  # zone, flaky
    min_size=1,
    max_size=6,
)
#: Per instant, the device indexes that leave (or come back) before it.
churn = st.lists(st.sets(st.integers(0, 5), max_size=2), min_size=INSTANTS, max_size=INSTANTS)


def build(factory, fleet, policy):
    registry = ServiceRegistry(policy=policy)
    services = []
    for index, (zone, flaky) in enumerate(fleet):
        service = factory(f"dev{index}", zone).as_service()
        if flaky:
            service = FaultInjector(
                service, FaultScript(failure_rate=0.4), seed="prop"
            ).as_service()
        services.append(service)
        registry.register(service)
    return registry, services


def dict_rows(registry, prototype, columns, instant):
    providers = registry.providers(prototype)
    outcomes = registry.invoke_many(
        prototype, [service.reference for service in providers], (), instant
    )
    names = prototype.output_schema.names
    rows = []
    for service, outcome in zip(providers, outcomes):
        if isinstance(outcome, ServiceError):
            continue
        for values in outcome:
            row = dict(columns(service))
            row.update(zip(names, values))
            row["at"] = instant
            rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(
    stream=st.sampled_from(sorted(STREAMS)),
    fleet=devices,
    churn=churn,
    chaos=st.booleans(),
)
def test_stream_poll_tuples_are_the_ordered_dict_rows(stream, fleet, churn, chaos):
    prototype, schema, columns, factory = STREAMS[stream]
    policy = city_policy() if chaos else None
    polled, polled_services = build(factory, fleet, policy)
    reference, reference_services = build(factory, fleet, policy)
    poll = StreamPoll(polled, prototype, schema, columns)
    for instant, moved in enumerate(churn):
        for index in sorted(moved):
            if index >= len(fleet):
                continue
            for registry, services in (
                (polled, polled_services),
                (reference, reference_services),
            ):
                service = services[index]
                if service.reference in registry:
                    registry.unregister(service.reference)
                else:
                    registry.register(service)
        expected = [
            schema.values_from_mapping(row)
            for row in dict_rows(reference, prototype, columns, instant)
        ]
        assert poll.rows(instant) == expected
    assert polled.health.snapshot() == reference.health.snapshot()
