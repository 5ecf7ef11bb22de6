"""Failure-injection integration tests: crashing devices, vanishing
services, bouncing messengers — the robustness behaviours a pervasive
system must survive."""

from repro.algebra import col, scan
from repro.devices.scenario import build_temperature_surveillance


class TestSensorCrash:
    def test_crashed_local_erm_drains_the_sensor_table(self):
        scenario = build_temperature_surveillance()
        scenario.run(2)
        assert (
            len(scenario.environment.instantaneous("sensors", scenario.clock.now))
            == 4
        )
        scenario.pems.local_erms["field"].crash()
        scenario.run(12)  # past the lease
        sensors = scenario.environment.instantaneous("sensors", scenario.clock.now)
        assert len(sensors) == 0

    def test_queries_keep_running_through_the_crash(self):
        scenario = build_temperature_surveillance()
        scenario.run(2)
        scenario.pems.local_erms["field"].crash()
        scenario.run(12)
        # The alerts query is still registered and evaluating (on an empty
        # sensor set) — no exception, no alerts.
        assert scenario.queries["alerts"].last_result is not None
        assert scenario.queries["alerts"].last_result.instant == scenario.clock.now

    def test_recovery_restores_the_pipeline(self):
        scenario = build_temperature_surveillance()
        scenario.run(2)
        field = scenario.pems.local_erms["field"]
        field.crash()
        scenario.run(12)
        field.recover()
        scenario.run(4)
        sensors = scenario.environment.instantaneous("sensors", scenario.clock.now)
        assert len(sensors) == 4
        stream = scenario.environment.relation("temperatures")
        assert len(stream.inserted_at(scenario.clock.now)) == 4


class TestServiceVanishesMidQuery:
    def test_skip_policy_degrades_gracefully(self, paper_env):
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        paper_env.unregister_service("sensor06")
        result = q.evaluate(paper_env)
        assert len(result.relation) == 3

    def test_skip_policy_on_handler_exception(self, paper_env):
        """A service whose method raises is skipped, not fatal."""
        from repro.devices.prototypes import GET_TEMPERATURE
        from repro.model.services import Service

        def broken(inputs, instant):
            raise RuntimeError("sensor on fire")

        paper_env.registry.register(
            Service("sensor06", {GET_TEMPERATURE: broken})
        )
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        result = q.evaluate(paper_env)
        assert len(result.relation) == 3
        assert "sensor06" not in result.relation.column("sensor")


class TestMessengerFailures:
    def test_bounced_messages_have_sent_false(self):
        scenario = build_temperature_surveillance(messenger_failure_rate=1.0)
        scenario.sensors["sensor06"].heat(3, 8, peak=15.0)
        scenario.run(10)
        cq = scenario.queries["alerts"]
        assert len(scenario.outbox) > 0  # attempts recorded
        assert all(not m.delivered for m in scenario.outbox.messages)
        # The query result exposes the failure through 'sent' = false.
        sent_values = set()
        for result in [cq.last_result]:
            sent_values.update(result.relation.column("sent"))
        # last_result may be empty if the episode ended; look at actions.
        assert len(cq.action_log) == len(scenario.outbox)

    def test_actions_recorded_even_when_delivery_fails(self):
        """An action is the *invocation*, not its success: a bounced send
        still had a side effect attempt (Definition 8 does not inspect
        outputs)."""
        scenario = build_temperature_surveillance(messenger_failure_rate=1.0)
        scenario.sensors["sensor06"].heat(3, 6, peak=15.0)
        scenario.run(8)
        assert len(scenario.queries["alerts"].actions) > 0
