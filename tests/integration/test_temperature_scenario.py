"""Integration test: the full temperature surveillance scenario
(Section 5.2, first experiment)."""

import pytest

from repro.devices.scenario import build_temperature_surveillance
from repro.errors import SerenaError


@pytest.fixture
def scenario():
    return build_temperature_surveillance()


class TestSteadyState:
    def test_no_alerts_at_ambient_temperatures(self, scenario):
        scenario.run(10)
        assert len(scenario.outbox) == 0

    def test_stream_fed_every_tick(self, scenario):
        scenario.run(5)
        stream = scenario.environment.relation("temperatures")
        assert len(stream) == 5 * 4  # 4 sensors

    def test_discovery_tables_populated(self, scenario):
        scenario.run(1)
        env = scenario.environment
        sensors = env.instantaneous("sensors", scenario.clock.now)
        assert len(sensors) == 4
        cameras = env.instantaneous("cameras", scenario.clock.now)
        assert len(cameras) == 3


class TestAlerting:
    def test_heating_office_alerts_its_manager(self, scenario):
        """Heat sensor06 (office): Carla (office manager) gets messages by
        email, nobody else does."""
        scenario.sensors["sensor06"].heat(3, 10, peak=15.0)  # 21 + 15 > 28
        scenario.run(12)
        assert len(scenario.outbox) > 0
        addresses = {m.address for m in scenario.outbox.messages}
        assert addresses == {"carla@elysee.fr"}
        channels = {m.channel for m in scenario.outbox.messages}
        assert channels == {"email"}

    def test_alert_only_above_threshold(self, scenario):
        """A mild warm-up below the 28°C threshold stays silent."""
        scenario.sensors["sensor06"].heat(3, 10, peak=4.0)  # max ≈ 25
        scenario.run(12)
        assert len(scenario.outbox) == 0

    def test_roof_manager_routed_via_jabber(self, scenario):
        scenario.sensors["sensor22"].heat(3, 10, peak=15.0)  # 15+15 > 26
        scenario.run(12)
        channels = {m.channel for m in scenario.outbox.messages}
        assert channels == {"jabber"}
        addresses = {m.address for m in scenario.outbox.messages}
        assert addresses == {"francois@im.gouv.fr"}

    def test_each_reading_alerts_once(self, scenario):
        """The continuous β invokes once per inserted stream tuple: the
        number of messages equals the number of actions (no re-sends for
        tuples cached across instants)."""
        scenario.sensors["sensor06"].heat(3, 6, peak=15.0)
        scenario.run(10)
        actions = scenario.queries["alerts"].action_log
        assert len(actions) > 0
        assert len(scenario.outbox) == len(actions)


class TestColdPhotos:
    def test_cold_roof_triggers_photos(self, scenario):
        scenario.sensors["sensor22"].heat(3, 10, peak=-10.0)  # 15−10 < 12
        scenario.run(12)
        emitted = scenario.queries["cold-photos"].emitted
        # webcam07 watches the roof but its nominal quality is 4 (< 5):
        # photos depend on the per-instant wiggle reaching 5.
        for _, values in emitted:
            relation = scenario.queries["cold-photos"].last_result.relation
            mapping = relation.schema.mapping_from_tuple(values)
            assert mapping["area"] == "roof"
            assert isinstance(mapping["photo"], bytes)

    def test_cold_office_photographed_by_office_camera(self, scenario):
        scenario.sensors["sensor06"].heat(3, 10, peak=-15.0)  # 21−15 < 12
        scenario.run(12)
        emitted = scenario.queries["cold-photos"].emitted
        assert len(emitted) > 0
        shots = scenario.cameras["camera01"].shots
        assert len(shots) > 0


class TestDynamicDiscovery:
    def test_hot_plugged_sensor_joins_running_queries(self, scenario):
        """Section 5.2: new sensors are integrated without stopping the
        continuous query execution."""
        scenario.run(3)
        new_sensor = scenario.add_sensor("sensor99", "office", base=21.0)
        new_sensor.heat(scenario.clock.now + 2, scenario.clock.now + 8, peak=15.0)
        scenario.run(12)
        sensors_table = scenario.environment.instantaneous(
            "sensors", scenario.clock.now
        )
        assert "sensor99" in sensors_table.column("sensor")
        # The new sensor's readings triggered alerts to the office manager.
        assert {m.address for m in scenario.outbox.messages} == {"carla@elysee.fr"}
        assert len(scenario.outbox) > 0

    def test_removed_sensor_stops_feeding(self, scenario):
        scenario.run(2)
        scenario.remove_sensor("sensor22")
        scenario.run(1)
        stream = scenario.environment.relation("temperatures")
        latest = stream.inserted_at(scenario.clock.now)
        sensors_in_latest = {t[0] for t in latest}
        assert "sensor22" not in sensors_in_latest
        assert len(sensors_in_latest) == 3

    def test_removing_from_an_unknown_local_erm_creates_none(self, scenario):
        with pytest.raises(SerenaError, match="gatway"):
            scenario.remove_sensor("sensor01", erm_name="gatway")
        assert set(scenario.pems.local_erms) == {"field", "gateway"}

    def test_adding_to_an_unknown_local_erm_creates_none(self, scenario):
        with pytest.raises(SerenaError, match="feild"):
            scenario.add_sensor("sensor77", "lab", erm_name="feild")
        assert set(scenario.pems.local_erms) == {"field", "gateway"}
        assert "sensor77" not in scenario.sensors
        scenario.run(2)
        sensors_table = scenario.environment.instantaneous(
            "sensors", scenario.clock.now
        )
        assert "sensor77" not in sensors_table.column("sensor")


class TestAllThreeChannels:
    def test_corridor_alerts_go_by_email_and_sms(self, scenario):
        """§5.2: alert messages "by mail, instant message or SMS" — the
        corridor has two managers on different channels."""
        scenario.sensors["sensor01"].heat(3, 10, peak=15.0)  # 19+15 > 30
        scenario.run(12)
        assert len(scenario.outbox) > 0
        channels = {m.channel for m in scenario.outbox.messages}
        assert channels == {"email", "sms"}
        recipients = {m.address for m in scenario.outbox.messages}
        assert recipients == {"nicolas@elysee.fr", "+33600000007"}

    def test_scenario_covers_all_three_channels_overall(self, scenario):
        """Heating every location exercises email, jabber and SMS."""
        for reference in ("sensor01", "sensor06", "sensor22"):
            scenario.sensors[reference].heat(3, 10, peak=20.0)
        scenario.run(12)
        channels = {m.channel for m in scenario.outbox.messages}
        assert channels == {"email", "jabber", "sms"}
