"""Experiment T1 — Table 1: prototypes and services DDL.

Parses the paper's Table 1 verbatim, prints the resulting catalog (the
same 4 prototypes / 9 services the paper lists) and benchmarks the DDL
parse+execute pipeline.
"""

from repro.continuous.time import VirtualClock
from repro.lang.ddl import ServiceDeclaration
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.pems.table_manager import ExtendedTableManager

from support import Report

TABLE1 = """
PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : ( quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : ( photo BLOB );
PROTOTYPE getTemperature( ) : ( temperature REAL );
SERVICE email IMPLEMENTS sendMessage;
SERVICE jabber IMPLEMENTS sendMessage;
SERVICE camera01 IMPLEMENTS checkPhoto, takePhoto;
SERVICE camera02 IMPLEMENTS checkPhoto, takePhoto;
SERVICE webcam07 IMPLEMENTS checkPhoto, takePhoto;
SERVICE sensor01 IMPLEMENTS getTemperature;
SERVICE sensor06 IMPLEMENTS getTemperature;
SERVICE sensor07 IMPLEMENTS getTemperature;
SERVICE sensor22 IMPLEMENTS getTemperature;
"""


def run_ddl():
    tables = ExtendedTableManager(PervasiveEnvironment(), VirtualClock())
    return tables.execute_ddl(TABLE1), tables.environment


def test_bench_table1_ddl(benchmark):
    results, env = benchmark(run_ddl)

    prototypes = [r for r in results if isinstance(r, Prototype)]
    services = [r for r in results if isinstance(r, ServiceDeclaration)]
    assert len(prototypes) == 4
    assert len(services) == 9
    assert env.prototype("sendMessage").active
    assert all(
        env.prototype(name).is_passive
        for name in ("checkPhoto", "takePhoto", "getTemperature")
    )

    report = Report("table1_ddl")
    report.table(
        ["prototype", "inputs", "outputs", "tag"],
        [
            [
                p.name,
                ", ".join(p.input_schema.names) or "-",
                ", ".join(p.output_schema.names),
                "ACTIVE" if p.active else "passive",
            ]
            for p in prototypes
        ],
        title="Prototypes (paper Table 1)",
    )
    report.table(
        ["service", "implements"],
        [[s.reference, ", ".join(s.prototype_names)] for s in services],
        title="Services (paper Table 1)",
    )
    report.emit()
