"""Tests for the realization operators α and β (Tables 3e and 3f)."""

import pytest

from repro.algebra import col, scan
from repro.errors import (
    InvalidOperatorError,
    InvocationError,
    VirtualAttributeError,
)


class TestAssignment:
    def test_constant_assignment(self, paper_env):
        q = scan(paper_env, "contacts").assign("text", "Bonjour!").query()
        result = q.evaluate(paper_env).relation
        assert "text" in result.schema.real_names
        assert set(result.column("text")) == {"Bonjour!"}
        assert len(result) == 3

    def test_assignment_from_attribute(self, paper_env):
        q = scan(paper_env, "contacts").assign_from("text", "address").query()
        result = q.evaluate(paper_env).relation
        rows = {m["name"]: m["text"] for m in result.to_mappings()}
        assert rows["Carla"] == "carla@elysee.fr"

    def test_only_virtual_attributes_assignable(self, paper_env):
        with pytest.raises(VirtualAttributeError, match="already real"):
            scan(paper_env, "contacts").assign("name", "X")

    def test_source_must_be_real(self, paper_env):
        with pytest.raises(VirtualAttributeError, match="must be real"):
            scan(paper_env, "contacts").assign_from("sent", "text")

    def test_constant_type_checked(self, paper_env):
        from repro.errors import TypingError

        with pytest.raises(TypingError):
            scan(paper_env, "contacts").assign("text", 42)

    def test_source_type_checked(self, paper_env):
        with pytest.raises(InvalidOperatorError, match="cannot assign"):
            scan(paper_env, "contacts").assign_from("sent", "address")

    def test_assignment_drops_pattern_realizing_its_output(self, paper_env):
        node = scan(paper_env, "contacts").assign("sent", True).node
        assert node.schema.binding_patterns == ()

    def test_assignment_keeps_pattern_for_inputs(self, paper_env):
        node = scan(paper_env, "contacts").assign("text", "x").node
        assert len(node.schema.binding_patterns) == 1

    def test_double_assignment_rejected(self, paper_env):
        builder = scan(paper_env, "contacts").assign("text", "x")
        with pytest.raises(VirtualAttributeError):
            builder.assign("text", "y")

    def test_value_positioned_correctly(self, paper_env):
        """'text' sits between 'address' and 'messenger' in schema order."""
        q = scan(paper_env, "contacts").assign("text", "T").query()
        result = q.evaluate(paper_env).relation
        t = sorted(result.tuples)[0]
        assert t == ("Carla", "carla@elysee.fr", "T", "email")


class TestInvocation:
    def test_invocation_realizes_outputs(self, paper_env):
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        result = q.evaluate(paper_env).relation
        assert "temperature" in result.schema.real_names
        assert len(result) == 4
        for value in result.column("temperature"):
            assert isinstance(value, float)

    def test_deterministic_at_instant(self, paper_env):
        """Services are deterministic at a given instant (Section 3.2)."""
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        r1 = q.evaluate(paper_env, instant=5).relation
        r2 = q.evaluate(paper_env, instant=5).relation
        assert r1 == r2

    def test_results_vary_across_instants(self, paper_env):
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        r1 = q.evaluate(paper_env, instant=1).relation
        r2 = q.evaluate(paper_env, instant=2).relation
        assert r1 != r2  # measurement noise differs

    def test_inputs_must_be_real(self, paper_env):
        """β(takePhoto) needs 'quality' realized first (Table 3f)."""
        with pytest.raises(InvalidOperatorError, match="still virtual"):
            scan(paper_env, "cameras").invoke("takePhoto")

    def test_zero_output_tuples_drop_input(self, paper_env):
        """checkPhoto on a camera that cannot see the area yields nothing:
        inputs are duplicated once per output tuple, so 0 outputs remove
        the tuple."""
        q = (
            scan(paper_env, "cameras")
            .assign("quality", 5)
            .invoke("takePhoto")
            .query()
        )
        # Every camera CAN see its own area (the tuples carry each camera's
        # area), so all three yield photos.
        assert len(q.evaluate(paper_env).relation) == 3

    def test_pipeline_check_then_take(self, paper_env):
        """Q2's shape: checkPhoto realizes quality, takePhoto consumes it."""
        q = (
            scan(paper_env, "cameras")
            .invoke("checkPhoto")
            .select(col("quality").ge(5))
            .invoke("takePhoto")
            .project("camera", "photo")
            .query("Q2")
        )
        result = q.evaluate(paper_env).relation
        assert len(result) >= 1
        for t in result:
            photo = result.schema.tuple_value(t, "photo")
            assert isinstance(photo, bytes)

    def test_unknown_binding_pattern(self, paper_env):
        from repro.errors import BindingPatternError

        with pytest.raises(BindingPatternError):
            scan(paper_env, "contacts").invoke("checkPhoto")

    def test_invocation_error_skip_policy(self, paper_env):
        """A failed call contributes no tuples (§2.1: 0, 1 or several)."""
        paper_env.unregister_service("sensor01")
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        result = q.evaluate(paper_env).relation
        assert len(result) == 3  # sensor01's tuple dropped
        assert "sensor01" not in result.column("sensor")

    def test_active_invocation_records_actions(self, paper_env):
        q = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        result = q.evaluate(paper_env)
        assert len(result.actions) == 3
        services = {a.service for a in result.actions}
        assert services == {"email", "jabber"}

    def test_passive_invocation_records_no_actions(self, paper_env):
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        assert q.evaluate(paper_env).actions == frozenset()

    def test_invocation_counts_tracked(self, paper_env):
        registry = paper_env.registry
        before = registry.invocation_count
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        q.evaluate(paper_env)
        assert registry.invocation_count - before == 4
