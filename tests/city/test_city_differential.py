"""The sampled city pinned across every engine, 55 ticks, cascade on.

The ISSUE 10 acceptance differential: the SMALL_CITY config (2 zones,
churn, one scripted cascade) runs on the naive oracle and every engine
of :mod:`tests.engines` in lockstep;
every engine must agree on every query's instantaneous result at every
instant, on the accumulated alert log, and — through the cascade — the
``station-health`` β sweep must keep reporting every station with **zero
missed readings** (the substitution registry's failover serving the
crash instant itself).
"""

import pytest

from repro.city.config import SMALL_CITY
from repro.city.scenario import build_city

from tests.engines import NAIVE, PAIRS

TICKS = 55


def alert_key(log):
    return sorted((a.instant, a.sink, a.zone, a.load) for a in log.alerts)


def drive(engine):
    scenario = build_city(SMALL_CITY, engine=engine)
    snapshots = []
    health_counts = []
    for _ in range(TICKS):
        scenario.run(1)
        snapshots.append(
            {
                name: cq.last_result.relation.tuples
                for name, cq in scenario.queries.items()
            }
        )
        health_counts.append(
            len(scenario.queries["station-health"].last_result.relation.tuples)
        )
    return scenario, snapshots, health_counts


@pytest.fixture(scope="module")
def naive_run():
    return drive(NAIVE)


@pytest.mark.parametrize("engine", PAIRS)
def test_city_differential(engine, naive_run):
    naive, naive_snaps, naive_health = naive_run
    scenario, snaps, health = drive(engine)
    for instant, (expected, got) in enumerate(zip(naive_snaps, snaps), start=1):
        assert got == expected, f"{engine} diverges at instant {instant}"
    assert alert_key(scenario.alerts) == alert_key(naive.alerts), engine
    assert health == naive_health, engine


def test_zero_missed_station_readings_through_cascade(naive_run):
    """Every tick — including the crash instant and the quarantine that
    follows — reports a reading for every station."""
    scenario, _, health = naive_run
    stations = len(scenario.topology.stations)
    crash_at = SMALL_CITY.cascade.crash_at
    assert scenario.clock.now >= crash_at, "run must cross the cascade"
    assert health == [stations] * TICKS


def test_cascade_had_observable_consequences(naive_run):
    scenario, snaps, _ = naive_run
    # The crashed station was rebound to a spare in its zone.
    report = scenario.pems.erm.substitution_report()
    crashed = scenario.cascade.crashed_station
    assert any(crashed in key for key in report["bindings"]), report["bindings"]
    # The downstream relays actually flickered: the relay-health sweep
    # lost rows during the intermittent episodes.
    relay_counts = {len(snap["relay-health"]) for snap in snaps}
    assert len(relay_counts) > 1, "relay flicker never showed in relay-health"
    # Demand surges crossed thresholds: alerts were raised and every one
    # carries a zone of this city.
    assert scenario.alerts.alerts
    assert {a.zone for a in scenario.alerts.alerts} <= set(SMALL_CITY.zones)


def test_failover_table_holds_the_covered_unbound_stations():
    """The failover table is pre-scored for every provider of a
    prototype some rule covers that is not already rebound: the four
    stations until the cascade's crash, then the three left once the
    crashed one is bound to its zone's spare."""
    scenario = build_city(SMALL_CITY, engine="shared")
    substitutions = scenario.pems.environment.registry.substitutions
    stations = [
        ("readStation", f"station-{zone}-{i}")
        for zone in SMALL_CITY.zones
        for i in range(2)
    ]
    crashed = ("readStation", scenario.cascade.crashed_station)
    assert crashed == stations[0]
    tables = {}
    for _ in range(30):
        scenario.run(1)
        tables[scenario.clock.now] = list(substitutions.failover)
    assert all(tables[t] == stations for t in range(1, 22))
    assert all(tables[t] == stations[1:] for t in range(22, 31))
    assert list(substitutions.bindings) == [crashed]
