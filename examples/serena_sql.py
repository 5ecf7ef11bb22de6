"""Serena SQL: the declarative front-end, end to end.

The paper mentions a SQL-like language over the Serena algebra ("the
Serena SQL", Section 1.1) without presenting it; this reproduction defines
one (see ``repro/lang/sql.py``).  This example drives a full PEMS with it:

1. DDL creates the catalog;
2. one-shot SQL queries read sensors and send messages;
3. a streaming binding pattern (``USING STREAMING ... AT ...`` — the
   Section 7 future-work feature) turns the sensors table into a
   temperatures stream *declaratively*;
4. a continuous SQL query alerts on hot readings.

Run:  python examples/serena_sql.py
"""

from repro.devices.messengers import Outbox, email_service
from repro.devices.sensors import TemperatureSensor
from repro.lang import compile_sql, explain
from repro.pems.pems import PEMS

DDL = """
PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
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
    temperature REAL VIRTUAL,
    at TIMESTAMP VIRTUAL
) USING BINDING PATTERNS (
    getTemperature[sensor] ( ) : ( temperature )
);
SERVICE email IMPLEMENTS sendMessage;
"""


def main():
    pems = PEMS()
    pems.execute_ddl(DDL)

    # Bind simulated devices to the declared catalog.
    outbox = Outbox()
    gateway = pems.create_local_erm("gateway")
    gateway.register(email_service(outbox).as_service())
    field = pems.create_local_erm("field")
    sensors = {}
    for reference, location, base in (
        ("sensor01", "corridor", 19.0),
        ("sensor06", "office", 21.0),
        ("sensor07", "office", 21.5),
    ):
        sensors[reference] = TemperatureSensor(reference, location, base)
        field.register(sensors[reference].as_service())
    pems.queries.register_discovery("getTemperature", "sensors", "sensor")
    pems.tables.insert(
        "contacts",
        [{"name": "Carla", "address": "carla@elysee.fr", "messenger": "email"}],
    )
    pems.run(1)

    print("=== One-shot: current office temperatures ===")
    result = pems.queries.execute_sql(
        "SELECT sensor, temperature FROM sensors "
        "WHERE location = 'office' USING getTemperature"
    )
    print(result.relation.to_table())

    print("\n=== One-shot: mean temperature per location (motivating example) ===")
    result = pems.queries.execute_sql(
        "SELECT location, avg(temperature) AS mean_temp, count(*) AS n "
        "FROM sensors USING getTemperature GROUP BY location"
    )
    print(result.relation.to_table())

    print("\n=== One-shot: message Carla (WHERE before the active USING) ===")
    result = pems.queries.execute_sql(
        "SELECT name, sent FROM contacts SET text := 'All systems nominal' "
        "WHERE name = 'Carla' USING sendMessage"
    )
    print(result.relation.to_table())
    print("action set:", result.actions)
    print("outbox    :", outbox.messages[-1])

    print("\n=== Continuous: a declarative temperatures stream (β∞) + alert ===")
    hot = compile_sql(
        "SELECT sensor, location, temperature, at "
        "FROM sensors USING STREAMING getTemperature AT at",
        pems.environment,
    )
    # Window the stream and filter it, still in SQL, via a registered
    # continuous query (the window clause applies to the base stream in
    # FROM; here we inline the β∞ expression through the algebra instead).
    print(explain(hot))
    from repro.algebra import PlanBuilder, col

    alert = (
        PlanBuilder(hot.root)
        .window(1)
        .select(col("temperature").gt(28.0))
        .join(PlanBuilder(compile_sql("SELECT * FROM contacts", pems.environment).root))
        .assign("text", "Hot!")
        .invoke("sendMessage")
        .query("hot-alerts")
    )
    cq = pems.queries.register_continuous(alert)
    sensors["sensor06"].heat(pems.clock.now + 2, pems.clock.now + 8, peak=12.0)
    pems.run(10)
    print(f"\nalerts sent during the heating episode: {len(cq.action_log)}")
    for message in outbox.messages[1:6]:
        print(f"  t={message.instant:2d}  {message.address}  {message.text!r}")


if __name__ == "__main__":
    main()
