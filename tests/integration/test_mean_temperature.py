"""Integration test for the motivating example's *mean* temperature alert
(Section 1.2: trigger "when the temperature (or the mean temperature)
exceeds a threshold") — aggregation over a window inside a continuous
query, composed with joins and an active invocation."""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import surveillance_schema, temperatures_schema
from repro.model.relation import XRelation


@pytest.fixture
def rig(paper_env):
    stream = XDRelation(temperatures_schema(), infinite=True)
    paper_env.add_relation(stream)
    paper_env.add_relation(
        XRelation.from_mappings(
            surveillance_schema(),
            [{"name": "Carla", "location": "office", "threshold": 28.0}],
        )
    )
    query = (
        scan(paper_env, "temperatures")
        .window(3)
        .aggregate(["location"], ("avg", "temperature", "mean_temp"))
        .join(scan(paper_env, "surveillance"))
        .select(col("mean_temp").gt(col("threshold")))
        .join(scan(paper_env, "contacts"))
        .assign("text", "Mean too high!")
        .invoke("sendMessage")
        .query("mean-alerts")
    )
    return paper_env, stream, ContinuousQuery(query, paper_env)


def feed(stream, instant, temps):
    rows = [
        (f"sensor{i:02d}", "office", t, instant) for i, t in enumerate(temps)
    ]
    stream.insert(rows, instant=instant)


class TestMeanTemperatureAlert:
    def test_single_spike_below_mean_threshold_stays_silent(self, rig):
        """One 35° reading among cool ones keeps the 3-instant mean below
        28° — no alert (this is exactly why one wants the mean)."""
        env, stream, cq = rig
        for instant, temps in enumerate([[20.0, 21.0], [35.0, 20.0], [21.0, 20.0]], 1):
            feed(stream, instant, temps)
            cq.evaluate_at(instant)
        assert len(cq.actions) == 0

    def test_sustained_heat_alerts(self, rig):
        env, stream, cq = rig
        for instant, temps in enumerate([[30.0, 31.0], [32.0, 33.0], [31.0, 30.0]], 1):
            feed(stream, instant, temps)
            cq.evaluate_at(instant)
        actions = cq.actions
        assert len(actions) == 1
        (action,) = actions
        assert action.inputs == ("carla@elysee.fr", "Mean too high!")

    def test_mean_is_over_the_window_not_the_instant(self, rig):
        env, stream, cq = rig
        # instants 1-2 cold, instant 3 very hot: window mean ≈ (20+20+44)/3
        feed(stream, 1, [20.0])
        cq.evaluate_at(1)
        feed(stream, 2, [20.0])
        cq.evaluate_at(2)
        feed(stream, 3, [44.0])
        result = cq.evaluate_at(3)
        assert len(result.actions) == 0  # mean 28.0 is not > 28.0
        feed(stream, 4, [44.0])
        result = cq.evaluate_at(4)  # window mean (20+44+44)/3 = 36
        assert len(result.actions) == 1

    def test_alert_routed_to_location_manager_only(self, rig):
        env, stream, cq = rig
        # Heat the roof — nobody manages it in this rig, so no alerts.
        stream.insert([("sensor22", "roof", 40.0, 1)], instant=1)
        cq.evaluate_at(1)
        assert len(cq.actions) == 0
