"""Tests for the simulated devices: determinism and behaviour."""

import pytest

from repro.devices.cameras import Camera
from repro.devices.determinism import (
    stable_choice,
    stable_gauss_like,
    stable_int,
    stable_unit,
)
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.messengers import Outbox, email_service, jabber_service, sms_service
from repro.devices.prototypes import CHECK_PHOTO, GET_TEMPERATURE, SEND_MESSAGE, TAKE_PHOTO
from repro.devices.rss import RssFeed
from repro.devices.sensors import SensorStreamFeeder, StreamPoll, TemperatureSensor
from repro.model.services import ServiceRegistry


class TestDeterminism:
    def test_stable_unit_reproducible(self):
        assert stable_unit("a", 1) == stable_unit("a", 1)
        assert 0.0 <= stable_unit("a", 1) < 1.0

    def test_stable_unit_varies(self):
        values = {stable_unit("a", i) for i in range(50)}
        assert len(values) == 50

    def test_stable_int_bounds(self):
        for i in range(100):
            assert 0 <= stable_int(7, "x", i) < 7

    def test_stable_int_bad_bound(self):
        with pytest.raises(ValueError):
            stable_int(0, "x")

    def test_stable_gauss_like_range(self):
        for i in range(100):
            assert -1.0 <= stable_gauss_like("s", i) <= 1.0

    def test_stable_choice(self):
        options = ["a", "b", "c"]
        assert stable_choice(options, "k", 3) in options
        assert stable_choice(options, "k", 3) == stable_choice(options, "k", 3)


class TestTemperatureSensor:
    def test_deterministic_reading(self):
        s1 = TemperatureSensor("sensor01", "corridor", base=20.0)
        s2 = TemperatureSensor("sensor01", "corridor", base=20.0)
        assert s1.temperature(5) == s2.temperature(5)

    def test_reading_near_base(self):
        sensor = TemperatureSensor("sensor01", "corridor", base=20.0)
        for instant in range(0, 100, 7):
            assert abs(sensor.temperature(instant) - 20.0) < 3.0

    def test_heating_episode_raises_reading(self):
        sensor = TemperatureSensor("s", "office", base=20.0)
        sensor.heat(10, 20, peak=15.0)
        mid = sensor.temperature(15)  # plateau of the triangular ramp
        outside = sensor.temperature(30)
        assert mid > 30.0
        assert outside < 25.0

    def test_cooling_episode(self):
        """Negative peak models a cold draft (used by the Q4-style query)."""
        sensor = TemperatureSensor("s", "roof", base=15.0)
        sensor.heat(10, 20, peak=-12.0)
        assert sensor.temperature(15) < 6.0

    def test_bad_episode(self):
        with pytest.raises(ValueError):
            TemperatureSensor("s", "x").heat(10, 5, 1.0)

    def test_as_service(self):
        service = TemperatureSensor("sensor01", "corridor").as_service()
        assert service.reference == "sensor01"
        assert service.properties["location"] == "corridor"
        (row,) = service.handler(GET_TEMPERATURE)({}, 3)
        assert isinstance(row["temperature"], float)


class TestCamera:
    def test_check_photo_own_area(self):
        camera = Camera("camera01", "office", quality=8)
        (row,) = camera.check_photo("office", 0)
        assert 7 <= row["quality"] <= 9
        assert row["delay"] > 0

    def test_check_photo_foreign_area_empty(self):
        camera = Camera("camera01", "office")
        assert camera.check_photo("roof", 0) == []

    def test_take_photo_records_shot(self):
        camera = Camera("camera01", "office")
        (row,) = camera.take_photo("office", 5, instant=7)
        assert row["photo"] == b"photo|camera01|office|q5|t7"
        assert camera.shots == [(7, "office", 5)]

    def test_take_photo_foreign_area_empty(self):
        camera = Camera("camera01", "office")
        assert camera.take_photo("roof", 5, 0) == []
        assert camera.shots == []

    def test_quality_clamped(self):
        camera = Camera("c", "office", quality=10)
        for instant in range(20):
            (row,) = camera.check_photo("office", instant)
            assert 0 <= row["quality"] <= 10

    def test_as_service_implements_both(self):
        service = Camera("camera01", "office").as_service()
        assert service.prototype_names == {"checkPhoto", "takePhoto"}


class TestMessengers:
    def test_send_records_message(self):
        outbox = Outbox()
        email = email_service(outbox)
        assert email.send("a@b.c", "Hi", instant=3)
        (message,) = outbox.messages
        assert message.channel == "email"
        assert message.instant == 3
        assert message.delivered

    def test_failure_rate_one_bounces_everything(self):
        outbox = Outbox()
        broken = email_service(outbox, failure_rate=1.0)
        assert not broken.send("a@b.c", "Hi", 0)
        assert not outbox.messages[0].delivered

    def test_failure_rate_validated(self):
        with pytest.raises(ValueError):
            email_service(failure_rate=2.0)

    def test_outbox_queries(self):
        outbox = Outbox()
        email = email_service(outbox)
        jabber = jabber_service(outbox)
        email.send("a@b.c", "one", 0)
        jabber.send("x@y.z", "two", 1)
        assert len(outbox.sent_to("a@b.c")) == 1
        assert len(outbox.by_channel("jabber")) == 1
        assert len(outbox) == 2

    def test_channel_latencies_differ(self):
        assert sms_service().latency > email_service().latency > jabber_service().latency

    def test_as_service(self):
        outbox = Outbox()
        service = email_service(outbox).as_service()
        (row,) = service.handler(SEND_MESSAGE)({"address": "a@b", "text": "t"}, 0)
        assert row["sent"] is True
        assert len(outbox) == 1


class TestRssFeed:
    def test_deterministic(self):
        a = RssFeed("lemonde", rate=0.5, seed=1)
        b = RssFeed("lemonde", rate=0.5, seed=1)
        for instant in range(30):
            assert a.items_at(instant) == b.items_at(instant)

    def test_rate_controls_volume(self):
        low = sum(len(RssFeed("x", 0.1, 0).items_at(i)) for i in range(400))
        high = sum(len(RssFeed("x", 0.9, 0).items_at(i)) for i in range(400))
        assert high > low * 3

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            RssFeed("x", rate=0.0)

    def test_items_between_window(self):
        feed = RssFeed("x", rate=1.0, seed=0)
        items = feed.items_between(5, 8)
        assert len(items) == 3  # instants 6, 7, 8
        assert [i["published"] for i in items] == [6, 7, 8]

    def test_some_items_mention_keyword(self):
        feed = RssFeed("lemonde", rate=1.0, seed=0)
        titles = [feed.items_at(i)[0]["title"] for i in range(200)]
        assert any("Obama" in t for t in titles)
        assert not all("Obama" in t for t in titles)


class TestRssStreamWrapper:
    def _collect(self, poll_period, instants=12):
        from repro.devices.rss import RssFeed, RssStreamWrapper

        feed = RssFeed("site", rate=1.0, seed=0)
        rows: list[dict] = []
        wrapper = RssStreamWrapper([feed], rows.extend, poll_period=poll_period)
        for instant in range(1, instants + 1):
            wrapper(instant)
        return rows

    def test_poll_every_instant(self):
        rows = self._collect(poll_period=1)
        assert [r["published"] for r in rows] == list(range(1, 13))

    def test_sparse_polling_catches_up(self):
        """Polling every 3 instants still delivers every item published
        since the previous poll (no loss, no duplicates)."""
        rows = self._collect(poll_period=3)
        assert [r["published"] for r in rows] == list(range(1, 13))

    def test_rows_carry_site(self):
        rows = self._collect(poll_period=2, instants=4)
        assert {r["site"] for r in rows} == {"site"}

    def test_wrapper_as_service_matches_feed(self):
        from repro.devices.prototypes import FETCH_ITEMS
        from repro.devices.rss import RssFeed

        feed = RssFeed("site", rate=1.0, seed=3)
        service = feed.as_service()
        assert service.reference == "rss-site"
        rows = service.handler(FETCH_ITEMS)({}, 7)
        assert rows == feed.items_at(7)


class TestStreamPoll:
    """The one poll loop behind SensorStreamFeeder and the city's
    FleetTelemetryFeeder."""

    def registry(self):
        return ServiceRegistry(
            [
                TemperatureSensor("s2", "roof").as_service(),
                TemperatureSensor("s1", "office").as_service(),
                Camera("cam", "hall").as_service(),
            ]
        )

    def poll(self, registry, calls):
        def columns(service):
            calls.append(service.reference)
            return {"sensor": service.reference, "location": service.properties["location"]}

        return StreamPoll(registry, GET_TEMPERATURE, columns)

    def test_rows_are_constants_plus_outputs_plus_at(self):
        registry, calls = self.registry(), []
        rows = self.poll(registry, calls).rows(7)
        assert rows == [
            {
                "sensor": reference,
                "location": location,
                "temperature": registry.invoke(GET_TEMPERATURE, reference, {}, 7)[0][0],
                "at": 7,
            }
            for reference, location in (("s1", "office"), ("s2", "roof"))
        ]

    def test_per_service_constants_are_built_once_per_topology(self):
        registry, calls = self.registry(), []
        poll = self.poll(registry, calls)
        for instant in range(5):
            poll.rows(instant)
        assert calls == ["s1", "s2"]
        registry.register(TemperatureSensor("s0", "lab").as_service())
        assert [row["sensor"] for row in poll.rows(5)] == ["s0", "s1", "s2"]
        assert calls == ["s1", "s2", "s0", "s1", "s2"]
        registry.unregister("s1")
        assert [row["sensor"] for row in poll.rows(6)] == ["s0", "s2"]

    def test_a_failing_device_is_absent_and_recorded(self):
        registry, calls = self.registry(), []
        flaky = FaultInjector(
            registry.get("s1"), FaultScript(crash_windows=((2, 4),)), seed="x"
        )
        registry.register(flaky.as_service())
        poll = self.poll(registry, calls)
        present = [[row["sensor"] for row in poll.rows(t)] for t in range(5)]
        assert present == [["s1", "s2"], ["s1", "s2"], ["s2"], ["s2"], ["s1", "s2"]]
        assert registry.health.health("s1").total_failures == 2

    def test_sensor_stream_feeder_inserts_the_polled_rows(self):
        registry, batches = self.registry(), []
        feeder = SensorStreamFeeder(registry, batches.append, period=2)
        for instant in range(4):
            feeder(instant)
        assert [batch[0]["at"] for batch in batches] == [0, 2]
        assert batches[0][0] == {
            "sensor": "s1",
            "location": "office",
            "temperature": registry.invoke(GET_TEMPERATURE, "s1", {}, 0)[0][0],
            "at": 0,
        }
