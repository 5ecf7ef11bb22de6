"""State is bounded: a quiet city's standing queries hold as many tuples
after 40 ticks as after 10, and a churning city's discovery-event log
stops at its cap.

A stream is read through ``W[n]``, and the window reads the stream's
journal as a leaf, so no executor keeps a growing copy of the stream's
history (ROADMAP 12).
"""

from repro.city.config import CityConfig
from repro.city.scenario import build_city
from repro.exec.executors import ScanExec
from repro.pems.erm import EVENT_LOG_SIZE

#: No surge (no overload alerts) and no weather stations (no storms): every
#: query's result keeps its size, while the meter, station and relay
#: streams each take a reading per device per tick.
QUIET = CityConfig(surge_factor=0.0, weather_per_zone=0)


def executors(scenario):
    """The executors of every registered query, each once."""
    unique = {}
    for cq in scenario.queries.values():
        for executor in cq.executors():
            unique[id(executor)] = executor
    return list(unique.values())


def held(scenario) -> int:
    return sum(len(e.current) for e in executors(scenario))


def test_executor_state_is_flat_after_warm_up():
    scenario = build_city(QUIET, engine="shared")
    scenario.run(10)
    at_10 = held(scenario)
    scenario.run(30)
    assert held(scenario) == at_10


def test_no_scan_over_a_stream_is_built():
    scenario = build_city(QUIET, engine="shared")
    scenario.run(1)
    streams = [
        e.node.name
        for e in executors(scenario)
        if isinstance(e, ScanExec) and e.node.is_stream
    ]
    assert streams == []


def test_the_discovery_event_log_keeps_the_newest_events():
    config = CityConfig(meters_per_zone=30, churn_rate=0.5, seed=1)
    scenario = build_city(config, with_queries=False)
    erm = scenario.pems.erm
    emitted = []
    erm.on_discovery(emitted.append)
    scenario.run(400)
    assert len(emitted) > EVENT_LOG_SIZE
    assert erm.events == emitted[-EVENT_LOG_SIZE:]
