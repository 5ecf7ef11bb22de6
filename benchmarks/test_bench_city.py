"""City-scale scenario benchmark: devices × queries × churn sweep.

Generated cities (:mod:`repro.city`) on the real engines, measured as
steady-state seconds per tick — every tick polls the whole fleet through
the service registry (four telemetry feeders), maintains the standing
query pack and pays the fault machinery where scripted.  Three axes, all
recorded in ``BENCH_city.json``:

* **scale** — device count sweep on the shared engine (the full
  configuration tops out above 2000 devices);
* **± cascade** — the scripted substation crash plus relay flicker vs a
  quiet grid, with the zero-missed-readings invariant checked on every
  tick of the cascade run;
* **churn** — meter failure-rate sweep at mid scale (quarantine and
  release machinery in the loop).

Set ``BENCH_SMOKE=1`` for the reduced CI configuration.
"""

import json
import os
import platform
from time import perf_counter

from repro.bench.reporting import Report
from repro.city.cascade import CascadeSpec
from repro.city.config import CityConfig
from repro.city.scenario import build_city

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

TICKS = 4 if SMOKE else 8
#: (meters, relays, stations, spares, weather) per zone, zone count.
SCALES = (
    [(4, 1, 1, 1, 1, 2), (12, 2, 1, 1, 1, 2)]
    if SMOKE
    else [(10, 2, 1, 1, 1, 2), (60, 4, 2, 1, 1, 4), (240, 8, 2, 1, 1, 8)]
)
MID = SCALES[-2] if len(SCALES) > 1 else SCALES[0]
CHURN_RATES = (0.0, 0.05) if SMOKE else (0.0, 0.05, 0.2)
CASCADE = CascadeSpec(zone=0, crash_at=3, flicker_ticks=3, stagger=1)


def city_config(scale, churn=0.0, cascade=None, name="bench"):
    meters, relays, stations, spares, weather, zone_count = scale
    return CityConfig(
        name=name,
        seed=f"bench-{name}",
        zones=zone_count,
        meters_per_zone=meters,
        relays_per_zone=relays,
        stations_per_zone=stations,
        spare_stations_per_zone=spares,
        weather_per_zone=weather,
        alert_sinks=1,
        churn_rate=churn,
        cascade=cascade,
    )


def timed_run(config, check_health=False):
    """Build, one warm tick, then TICKS timed ticks.  Returns seconds
    spent inside the timed ticks (and asserts the zero-missed-readings
    invariant when asked)."""
    scenario = build_city(config)
    stations = len(scenario.topology.stations)
    scenario.run(1)
    seconds = 0.0
    for _ in range(TICKS):
        began = perf_counter()
        scenario.run(1)
        seconds += perf_counter() - began
        if check_health:
            health = scenario.queries["station-health"].last_result.relation
            assert len(health.tuples) == stations, (
                f"missed station reading at instant {scenario.clock.now}"
            )
    return scenario, seconds


def test_bench_city(benchmark):
    def run():
        payload = {}

        scales = []
        for scale in SCALES:
            config = city_config(scale, name=f"scale{scale[0]}")
            scenario, seconds = timed_run(config)
            scales.append(
                {
                    "devices": config.device_count,
                    "zones": len(config.zones),
                    "queries": len(scenario.queries),
                    "seconds_per_tick": round(seconds / TICKS, 6),
                }
            )
        payload["scales"] = scales

        quiet = city_config(MID, name="quiet")
        stormy = city_config(MID, cascade=CASCADE, name="stormy")
        _, quiet_seconds = timed_run(quiet)
        cascade_scenario, stormy_seconds = timed_run(stormy, check_health=True)
        report = cascade_scenario.pems.erm.substitution_report()
        assert report["bindings"], "the benchmark cascade never engaged"
        payload["cascade"] = {
            "devices": stormy.device_count,
            "quiet_seconds_per_tick": round(quiet_seconds / TICKS, 6),
            "cascade_seconds_per_tick": round(stormy_seconds / TICKS, 6),
            "fault_overhead": round(stormy_seconds / quiet_seconds - 1.0, 4),
            "missed_station_readings": 0,
            "rebinds": len(report["history"]),
        }

        churn_axis = []
        for rate in CHURN_RATES:
            config = city_config(MID, churn=rate, name=f"churn{rate}")
            _, seconds = timed_run(config)
            churn_axis.append(
                {
                    "churn_rate": rate,
                    "seconds_per_tick": round(seconds / TICKS, 6),
                }
            )
        payload["churn"] = churn_axis
        return payload

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    top = payload["scales"][-1]
    if not SMOKE:
        assert top["devices"] >= 2000, top

    payload.update(
        {
            "ticks": TICKS,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "mode": "smoke" if SMOKE else "full",
        }
    )
    if not SMOKE:  # the committed artifact records the full configuration
        root = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
        with open(os.path.join(root, "BENCH_city.json"), "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    report = Report("city")
    report.table(
        ["devices", "zones", "queries", "per tick (ms)"],
        [
            [
                str(s["devices"]),
                str(s["zones"]),
                str(s["queries"]),
                f"{s['seconds_per_tick'] * 1000:.2f}",
            ]
            for s in payload["scales"]
        ],
        title=f"City scale sweep ({TICKS} timed ticks, shared engine)",
    )
    cascade = payload["cascade"]
    report.add(
        f"Cascade overhead at {cascade['devices']} devices: "
        f"{cascade['fault_overhead']:+.1%} per tick, "
        f"{cascade['rebinds']} rebind(s), 0 missed station readings"
    )
    report.table(
        ["churn", "per tick (ms)"],
        [
            [f"{c['churn_rate']:.2f}", f"{c['seconds_per_tick'] * 1000:.2f}"]
            for c in payload["churn"]
        ],
        title="Meter churn sweep (mid scale)",
    )
    report.emit()
