"""Simulated RSS feeds and the stream wrapper of the second experiment
(Section 5.2).

The paper wraps live RSS feeds ("Le Monde", "Le Figaro", "CNN Europe") as
services and polls them periodically, inserting a tuple into a stream
whenever a new item appears.  Offline, :class:`RssFeed` generates a
deterministic, seeded flow of headlines per site (some containing tracked
keywords like "Obama"), and :class:`RssStreamWrapper` reproduces the
poll-and-insert pattern: register it as a PEMS stream source and it feeds
a ``news`` stream with ``(site, title, published)`` rows.
"""

from __future__ import annotations

from repro.devices.determinism import stable_choice, stable_unit
from repro.devices.prototypes import FETCH_ITEMS
from repro.model.services import Service

__all__ = ["RssFeed", "RssStreamWrapper", "DEFAULT_SITES"]

DEFAULT_SITES = ("lemonde", "lefigaro", "cnn-europe")

_SUBJECTS = (
    "Obama", "the Parliament", "the Commission", "the markets",
    "scientists", "the ministry", "voters", "the summit",
)
_VERBS = (
    "announces", "debates", "rejects", "welcomes", "postpones",
    "investigates", "confirms", "denies",
)
_OBJECTS = (
    "a new climate plan", "the budget reform", "the election results",
    "a trade agreement", "the energy package", "a security initiative",
    "the health proposal", "new sanctions",
)


class RssFeed:
    """A deterministic headline generator for one site.

    At each instant, the feed publishes a new item with probability
    ``rate``; items are headlines composed from fixed word pools, so a
    known fraction mentions any given keyword — handy for asserting the
    behaviour of keyword-filtering continuous queries.
    """

    def __init__(self, site: str, rate: float = 0.3, seed: int = 0):
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be within (0, 1]")
        self.site = site
        self.rate = rate
        self.seed = seed

    def items_at(self, instant: int) -> list[tuple[str, int]]:
        """The ``(title, published)`` items published exactly at
        ``instant`` (0 or 1)."""
        if stable_unit(self.site, self.seed, "pub", instant) >= self.rate:
            return []
        subject = stable_choice(list(_SUBJECTS), self.site, self.seed, "s", instant)
        verb = stable_choice(list(_VERBS), self.site, self.seed, "v", instant)
        obj = stable_choice(list(_OBJECTS), self.site, self.seed, "o", instant)
        return [(f"{subject} {verb} {obj}", instant)]

    def items_between(self, start: int, end: int) -> list[tuple[str, int]]:
        """All items published in ``(start, end]`` (the poll window)."""
        items = []
        for instant in range(start + 1, end + 1):
            items.extend(self.items_at(instant))
        return items

    def as_service(self) -> Service:
        """Wrap the feed as a ``fetchItems`` service: returns the items of
        the current instant."""

        def fetch(inputs, instant):
            return self.items_at(instant)

        return Service(
            f"rss-{self.site}",
            {FETCH_ITEMS: fetch},
            description=f"RSS wrapper for {self.site}",
            properties={"site": self.site},
        )

    def __repr__(self) -> str:
        return f"RssFeed({self.site!r}, rate={self.rate})"


class RssStreamWrapper:
    """Polls feeds every instant into a news stream.

    "A tuple is inserted in the stream when a new item appears in the RSS
    feed (that is periodically checked)" — the wrapper remembers its last
    poll instant per feed and inserts everything published since.
    """

    def __init__(self, feeds: list[RssFeed], insert):
        self.feeds = list(feeds)
        self.insert = insert
        self._last_poll: dict[str, int] = {feed.site: 0 for feed in self.feeds}

    def __call__(self, instant: int) -> None:
        rows = []
        for feed in self.feeds:
            since = self._last_poll[feed.site]
            for title, published in feed.items_between(since, instant):
                rows.append(
                    {"site": feed.site, "title": title, "published": published}
                )
            self._last_poll[feed.site] = instant
        if rows:
            self.insert(rows)
