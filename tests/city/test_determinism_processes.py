"""Generator determinism across *fresh processes* (ISSUE 10 satellite).

Same ``CityConfig`` + seed must yield byte-identical topology, fault
schedule and 55-tick query output wherever it runs.  Two child
interpreters — deliberately launched with *different*
``PYTHONHASHSEED`` values, so any hidden reliance on ``hash()``
ordering would diverge — each print a topology digest, a fault-schedule
digest and a digest of the full 55-tick query output; the outputs must
match byte for byte.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import hashlib, sys

from repro.city.config import SMALL_CITY
from repro.city.scenario import build_city

scenario = build_city(SMALL_CITY)
print("topology", scenario.topology.digest())

schedule = scenario.cascade
fault_blob = hashlib.sha256()
for reference in schedule.affected():
    fault_blob.update(f"{reference} {schedule.script_for(reference)!r}\\n".encode())
for reference, injector in sorted(scenario.injectors.items()):
    fault_blob.update(f"churn {reference} {injector.script!r}\\n".encode())
print("faults", fault_blob.hexdigest())

output_blob = hashlib.sha256()
for _ in range(55):
    scenario.run(1)
    for name in sorted(scenario.queries):
        tuples = scenario.queries[name].last_result.relation.tuples
        output_blob.update(name.encode())
        for line in sorted(repr(t) for t in tuples):
            output_blob.update(line.encode())
alerts = sorted(
    (a.instant, a.sink, a.zone, a.load) for a in scenario.alerts.alerts
)
output_blob.update(repr(alerts).encode())
print("output", output_blob.hexdigest())
"""


def run_child(hash_seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_two_fresh_processes_agree_byte_for_byte():
    first = run_child("1")
    second = run_child("20400")
    assert first == second
    lines = dict(line.split() for line in first.strip().splitlines())
    assert set(lines) == {"topology", "faults", "output"}
    # and the in-process topology digest matches the children's
    from repro.city.config import SMALL_CITY
    from repro.city.generator import generate_topology

    assert generate_topology(SMALL_CITY).digest() == lines["topology"]
