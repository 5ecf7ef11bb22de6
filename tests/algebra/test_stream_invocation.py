"""Tests for the streaming-binding-pattern operator β∞ (Section 7's
future work, implemented as an extension)."""

import pytest

from repro.algebra import EvaluationContext, StreamingInvocation, col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.scenario import sensors_schema
from repro.errors import InvalidOperatorError
from repro.model.relation import XRelation


@pytest.fixture
def timed_env(paper_env):
    """The paper env with a timestamped sensors table."""
    rows = paper_env.instantaneous("sensors", 0).to_mappings()
    paper_env.remove_relation("sensors")
    paper_env.add_relation(
        XRelation.from_mappings(sensors_schema(with_timestamp=True), rows)
    )
    return paper_env


class TestConstruction:
    def test_output_is_stream(self, timed_env):
        node = scan(timed_env, "sensors").invoke_stream("getTemperature").node
        assert node.is_stream
        assert "temperature" in node.schema.real_names

    def test_timestamp_attribute_realized(self, timed_env):
        node = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .node
        )
        assert "at" in node.schema.real_names

    def test_active_patterns_rejected(self, timed_env):
        """Streaming an active pattern would repeat its side effect at
        every instant — forbidden by construction."""
        builder = scan(timed_env, "contacts").assign("text", "Hi")
        bp = builder.schema.binding_pattern("sendMessage")
        with pytest.raises(InvalidOperatorError, match="active"):
            StreamingInvocation(builder.node, bp)

    def test_inputs_must_be_real(self, timed_env):
        bp = timed_env.schema("cameras").binding_pattern("takePhoto")
        with pytest.raises(InvalidOperatorError, match="still virtual"):
            StreamingInvocation(scan(timed_env, "cameras").node, bp)

    def test_stream_operand_rejected(self, timed_env):
        stream_node = scan(timed_env, "sensors").invoke_stream("getTemperature")
        bp = timed_env.schema("sensors").binding_pattern("getTemperature")
        with pytest.raises(InvalidOperatorError, match="finite"):
            StreamingInvocation(stream_node.node, bp)

    def test_timestamp_must_be_virtual(self, timed_env):
        bp = timed_env.schema("sensors").binding_pattern("getTemperature")
        with pytest.raises(InvalidOperatorError, match="must be virtual"):
            StreamingInvocation(
                scan(timed_env, "sensors").node, bp, timestamp_attribute="location"
            )

    def test_timestamp_cannot_be_bp_output(self, timed_env):
        bp = timed_env.schema("sensors").binding_pattern("getTemperature")
        with pytest.raises(InvalidOperatorError, match="cannot be an output"):
            StreamingInvocation(
                scan(timed_env, "sensors").node, bp, timestamp_attribute="temperature"
            )


class TestEmission:
    def test_emits_one_reading_per_sensor_per_instant(self, timed_env):
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query()
        )
        result = q.evaluate(timed_env, instant=3).relation
        assert len(result) == 4
        assert set(result.column("at")) == {3}

    def test_fresh_readings_each_instant(self, timed_env):
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query()
        )
        cq = ContinuousQuery(q, timed_env)
        r1 = cq.evaluate_at(1).relation
        r2 = cq.evaluate_at(2).relation
        assert r1 != r2  # new instants, new readings (timestamps differ)
        assert len(r2) == 4

    def test_window_accumulates_emissions(self, timed_env):
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(3)
            .query()
        )
        cq = ContinuousQuery(q, timed_env)
        for instant in range(1, 5):
            result = cq.evaluate_at(instant).relation
        assert len(result) == 12  # 3 instants x 4 sensors

    def test_no_caching_unlike_plain_invocation(self, timed_env):
        """β∞ re-invokes every instant (it is a source, not a function)."""
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query()
        )
        cq = ContinuousQuery(q, timed_env)
        registry = timed_env.registry
        before = registry.invocation_count
        cq.evaluate_at(1)
        cq.evaluate_at(2)
        cq.evaluate_at(3)
        assert registry.invocation_count - before == 12

    def test_vanished_service_skipped(self, timed_env):
        timed_env.unregister_service("sensor22")
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query()
        )
        result = q.evaluate(timed_env, 1).relation
        assert len(result) == 3

    def test_downstream_selection_on_readings(self, timed_env):
        """The temperatures-stream idiom: W[1](β∞) then filter/join."""
        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .select(col("location").eq("office"))
            .project("sensor", "temperature", "at")
            .query()
        )
        result = q.evaluate(timed_env, 5).relation
        assert len(result) == 2  # sensor06, sensor07


class TestLanguageIntegration:
    def test_sal_round_trip(self, timed_env):
        from repro.lang import parse_query, to_sal

        q = (
            scan(timed_env, "sensors")
            .invoke_stream("getTemperature", timestamp="at")
            .window(1)
            .query()
        )
        assert parse_query(to_sal(q), timed_env).root == q.root

    def test_equality_and_signature(self, timed_env):
        a = scan(timed_env, "sensors").invoke_stream("getTemperature").node
        b = scan(timed_env, "sensors").invoke_stream("getTemperature").node
        c = scan(timed_env, "sensors").invoke_stream(
            "getTemperature", timestamp="at"
        ).node
        assert a == b
        assert a != c
