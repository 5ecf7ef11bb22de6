"""Experiment T2 — Table 2: X-Relation DDL (contacts, cameras).

Executes the paper's Table 2 verbatim on top of the Table 1 prototypes,
prints the created extended relation schemas (real/virtual partition and
binding patterns) and benchmarks schema creation + tuple loading.
"""

from repro.continuous.time import VirtualClock
from repro.devices.paper_example import CONTACT_ROWS
from repro.model.environment import PervasiveEnvironment
from repro.pems.table_manager import ExtendedTableManager

from support import Report
from test_bench_table1_ddl import TABLE1

TABLE2 = """
EXTENDED RELATION contacts (
    name STRING,
    address STRING,
    text STRING VIRTUAL,
    messenger SERVICE,
    sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS (
    sendMessage[messenger] ( address, text ) : ( sent )
);
EXTENDED RELATION cameras (
    camera SERVICE,
    area STRING,
    quality INTEGER VIRTUAL,
    delay REAL VIRTUAL,
    photo BLOB VIRTUAL
) USING BINDING PATTERNS (
    checkPhoto[camera] ( area ) : ( quality, delay ),
    takePhoto[camera] ( area, quality ) : ( photo )
);
"""


def build():
    tables = ExtendedTableManager(PervasiveEnvironment(), VirtualClock())
    tables.execute_ddl(TABLE1)
    tables.execute_ddl(TABLE2)
    tables.insert("contacts", CONTACT_ROWS)
    return tables


def test_bench_table2_xrelations(benchmark):
    tables = benchmark(build)
    env = tables.environment

    contacts = env.schema("contacts")
    assert contacts.virtual_names == {"text", "sent"}
    assert len(contacts.binding_patterns) == 1
    cameras = env.schema("cameras")
    assert cameras.virtual_names == {"quality", "delay", "photo"}
    assert len(cameras.binding_patterns) == 2

    report = Report("table2_xrelations")
    for name in ("contacts", "cameras"):
        report.add(env.schema(name).describe() + ";")
    report.add(
        "contacts contents (virtual attributes have no value, shown as *):\n"
        + env.instantaneous("contacts", 0).to_table()
    )
    report.emit()
