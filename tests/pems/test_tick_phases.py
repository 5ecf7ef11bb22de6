"""The order of one instant: :meth:`PEMS.tick` runs the five phases of the
:mod:`repro.pems.pems` contract — ``erm.sweep``, ``ingest``,
``discovery.sync``, ``evaluate``, ``lease.renew`` — in that order, every
Local ERM renewing in creation order."""

import dataclasses

from repro.city.config import SMALL_CITY
from repro.city.scenario import build_city
from repro.devices.scenario import build_temperature_surveillance


def record_phases(pems, monkeypatch):
    """Wrap every phase callable of ``pems`` so that each call appends its
    phase name to the returned list."""
    calls = []

    def recorded(label, phase):
        def call(*args):
            calls.append(label)
            return phase(*args)

        return call

    monkeypatch.setattr(pems.erm, "sweep", recorded("erm.sweep", pems.erm.sweep))
    monkeypatch.setattr(
        pems, "_sources", [recorded("ingest", source) for source in pems._sources]
    )
    monkeypatch.setattr(
        pems.queries,
        "sync_discovery",
        recorded("discovery.sync", pems.queries.sync_discovery),
    )
    monkeypatch.setattr(
        pems.queries, "evaluate", recorded("evaluate", pems.queries.evaluate)
    )
    for name, local in pems.local_erms.items():
        renew = recorded(f"lease.renew {name}", local.renew)
        monkeypatch.setattr(local, "renew", renew)
    return calls


def one_instant(sources, local_erms):
    return [
        "erm.sweep",
        *["ingest"] * sources,
        "discovery.sync",
        "evaluate",
        *[f"lease.renew {name}" for name in local_erms],
    ]


def test_temperature_scenario_runs_the_phases_in_order(monkeypatch):
    scenario = build_temperature_surveillance()
    calls = record_phases(scenario.pems, monkeypatch)
    scenario.run(3)
    assert calls == one_instant(1, ["field", "gateway"]) * 3


def test_a_city_with_two_local_erms_runs_the_phases_in_order(monkeypatch):
    city = build_city(dataclasses.replace(SMALL_CITY, zones=("north",)))
    pems = city.pems
    assert list(pems.local_erms) == ["grid-north", "ops"]
    calls = record_phases(pems, monkeypatch)
    for _ in range(3):
        pems.tick()
    assert calls == one_instant(4, ["grid-north", "ops"]) * 3


def test_sources_and_local_erms_added_mid_tick_act_from_the_next(monkeypatch):
    scenario = build_temperature_surveillance()
    pems = scenario.pems
    seen = []
    evaluate = pems.queries.evaluate

    def late_source(instant):
        seen.append(("late source", instant))

    def first_source(instant):
        if instant == 1:
            pems.add_stream_source(late_source)

    def evaluate_then_plug(instant):
        evaluate(instant)
        if instant == 1:
            late = pems.create_local_erm("late")
            renew = late.renew
            late.renew = lambda at: (seen.append(("late renew", at)), renew(at))

    pems.add_stream_source(first_source)
    monkeypatch.setattr(pems.queries, "evaluate", evaluate_then_plug)
    scenario.run(3)
    assert seen == [
        ("late source", 2),
        ("late renew", 2),
        ("late source", 3),
        ("late renew", 3),
    ]


def test_sweep_membership_is_what_ingest_sees():
    """A service the sweep reaps at τ is absent from the stream at τ: the
    sweep's membership changes reach ``ingest`` in the same instant."""
    scenario = build_temperature_surveillance()
    pems = scenario.pems
    field = pems.local_erms["field"]
    field.crash()
    stream = scenario.environment.relation("temperatures")
    instant = pems.tick()
    while not any(e.kind == "expired" for e in pems.erm.events):
        assert stream.inserted_at(instant)
        instant = pems.tick()
    assert {e.instant for e in pems.erm.events if e.kind == "expired"} == {instant}
    assert stream.inserted_at(instant) == set()


def test_renewals_take_effect_from_the_next_instant():
    """A RENEW re-admits a reaped service at τ, after ``discovery.sync``
    and ``evaluate`` have run: its discovery row appears at τ + 1."""
    scenario = build_temperature_surveillance()
    pems = scenario.pems
    field = pems.local_erms["field"]
    field.crash()
    while "sensor01" in pems.environment.registry:
        pems.tick()
    field.recover()
    renewed_at = pems.tick()
    assert [
        e.kind
        for e in pems.erm.events
        if e.instant == renewed_at and e.service.reference == "sensor01"
    ] == ["appeared"]

    def sensors(instant):
        return pems.environment.instantaneous("sensors", instant).column("sensor")

    assert "sensor01" not in sensors(renewed_at)
    pems.tick()
    assert "sensor01" in sensors(renewed_at + 1)
