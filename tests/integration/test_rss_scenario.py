"""Integration test: the RSS feed scenario (Section 5.2, second
experiment)."""

import pytest

from repro.devices.scenario import build_rss_scenario


@pytest.fixture
def scenario():
    # Small window for fast tests; high rate so items appear quickly.
    return build_rss_scenario(keyword="Obama", window=10, rate=0.5, seed=2)


class TestMatchingNews:
    def test_only_keyword_items_match(self, scenario):
        scenario.run(30)
        cq = scenario.queries["matching-news"]
        result = cq.last_result.relation
        for title in result.column("title"):
            assert "Obama" in title

    def test_window_expires_old_items(self, scenario):
        """'one-hour-old news expired': a matching item leaves the result
        once it is older than the window."""
        cq = scenario.queries["matching-news"]
        first_match_instant = None
        for _ in range(60):
            scenario.run(1)
            if first_match_instant is None and len(cq.last_result.relation) > 0:
                matched = cq.last_result.relation.column("published")
                first_match_instant = min(matched)
        assert first_match_instant is not None
        # Run past the window: the early item must be gone.
        scenario.run(15)
        remaining = cq.last_result.relation.column("published")
        assert all(p > first_match_instant for p in remaining) or not remaining

    def test_multiple_sites_feed_the_stream(self, scenario):
        scenario.run(40)
        news = scenario.environment.relation("news")
        sites = {t[0] for t in news.instantaneous(scenario.clock.now)}
        assert sites == {"lemonde", "lefigaro", "cnn-europe"}


class TestNewsAlerts:
    def test_matching_items_sent_to_recipient(self, scenario):
        scenario.run(40)
        assert len(scenario.outbox) > 0
        assert {m.address for m in scenario.outbox.messages} == {"carla@elysee.fr"}
        for message in scenario.outbox.messages:
            assert "Obama" in message.text

    def test_each_item_sent_once(self, scenario):
        """Items stay in the window for many instants but the invocation
        cache prevents duplicate sends."""
        scenario.run(40)
        texts = [(m.address, m.text) for m in scenario.outbox.messages]
        assert len(texts) == len(set(texts))

    def test_message_count_tracks_matches(self, scenario):
        scenario.run(50)
        # Every matching headline produced exactly one message.
        feeds = scenario.feeds.values()
        matching = 0
        for feed in feeds:
            for instant in range(1, scenario.clock.now + 1):
                for title, _ in feed.items_at(instant):
                    if "Obama" in title:
                        matching += 1
        assert len(scenario.outbox) == matching
