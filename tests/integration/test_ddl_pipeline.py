"""End-to-end DDL → catalog → SAL query → result pipeline on a PEMS."""

import pytest

from repro.devices.cameras import Camera
from repro.devices.messengers import Outbox, email_service
from repro.devices.sensors import TemperatureSensor
from repro.lang import parse_query
from repro.lang.ddl import ServiceDeclaration
from repro.pems.pems import PEMS

DDL = """
PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
PROTOTYPE getTemperature( ) : ( temperature REAL );

EXTENDED RELATION contacts (
    name STRING,
    address STRING,
    text STRING VIRTUAL,
    messenger SERVICE,
    sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS (
    sendMessage[messenger] ( address, text ) : ( sent )
);

EXTENDED RELATION sensors (
    sensor SERVICE,
    location STRING,
    temperature REAL VIRTUAL
) USING BINDING PATTERNS (
    getTemperature[sensor] ( ) : ( temperature )
);

EXTENDED STREAM temperatures (
    sensor SERVICE,
    location STRING,
    temperature REAL,
    at TIMESTAMP
);

SERVICE email IMPLEMENTS sendMessage;
SERVICE sensor01 IMPLEMENTS getTemperature;
"""


class TestFullPipeline:
    def test_ddl_then_sal_query(self):
        pems = PEMS()
        results = pems.execute_ddl(DDL)
        declarations = [r for r in results if isinstance(r, ServiceDeclaration)]
        assert {d.reference for d in declarations} == {"email", "sensor01"}

        # Bind the declared services to simulated implementations.
        outbox = Outbox()
        local = pems.create_local_erm("gateway")
        local.register(email_service(outbox).as_service())
        local.register(TemperatureSensor("sensor01", "corridor").as_service())

        # Discovery fills the sensors table.
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.tables.insert(
            "contacts",
            [{"name": "Carla", "address": "carla@elysee.fr", "messenger": "email"}],
        )
        pems.run(1)

        # Query in SAL: read a temperature, then message Carla.
        temps = parse_query(
            "invoke[getTemperature, sensor](sensors)", pems.environment
        )
        result = pems.queries.execute(temps)
        assert len(result.relation) == 1

        send = parse_query(
            "invoke[sendMessage, messenger](assign[text := 'hello']("
            "select[name = 'Carla'](contacts)))",
            pems.environment,
        )
        result = pems.queries.execute(send)
        assert len(result.actions) == 1
        assert outbox.messages[0].text == "hello"

    def test_continuous_sal_query_on_ddl_stream(self):
        pems = PEMS()
        pems.execute_ddl(DDL)
        local = pems.create_local_erm("field")
        sensor = TemperatureSensor("sensor01", "corridor", base=20.0)
        local.register(sensor.as_service())
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")

        from repro.devices.prototypes import GET_TEMPERATURE
        from repro.devices.sensors import FleetTelemetryFeeder, sensor_columns

        pems.add_stream_source(
            FleetTelemetryFeeder(
                pems.environment.registry,
                GET_TEMPERATURE,
                pems.tables,
                "temperatures",
                sensor_columns,
            )
        )
        hot = parse_query(
            "select[temperature > 30.0](window[1](temperatures))",
            pems.environment,
            "hot",
        )
        cq = pems.queries.register_continuous(hot)
        sensor.heat(2, 6, peak=20.0)
        pems.run(8)
        assert cq.last_result is not None
        # At the heating plateau the reading exceeded 30 °C at least once.
        total_matches = 0
        cq2 = pems.queries.continuous_query("hot")
        assert cq2 is cq
        # re-run a fresh window pass over history via the stream journal
        stream = pems.environment.relation("temperatures")
        for instant in range(1, pems.clock.now + 1):
            total_matches += sum(
                1 for t in stream.inserted_at(instant) if t[2] > 30.0
            )
        assert total_matches > 0
