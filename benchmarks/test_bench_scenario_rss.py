"""Experiment S2 — Section 5.2, second experiment: RSS feeds.

Polls three simulated feeds into a ``news`` stream, keeps the windowed
keyword table continuously updated (insertion when news of interest
appears, expiry when items age out of the window) and forwards each
matching headline once to a contact.
"""

from repro.devices.scenario import build_rss_scenario

from support import Report


def full_run():
    scenario = build_rss_scenario(keyword="Obama", window=20, rate=0.4, seed=11)
    updates = []  # (instant, entered, expired) — the "continuously updated" trace
    previous: frozenset = frozenset()
    for _ in range(60):
        scenario.run(1)
        current = scenario.queries["matching-news"].last_result.relation.tuples
        entered, left = current - previous, previous - current
        if entered or left:
            updates.append((scenario.clock.now, len(entered), len(left)))
        previous = current
    return scenario, updates


def test_bench_scenario_rss(benchmark):
    scenario, updates = benchmark(full_run)

    relation = scenario.queries["matching-news"].last_result.relation
    for title in relation.column("title"):
        assert "Obama" in title
    assert any(entered for _, entered, _ in updates), "news of interest appeared"
    assert any(left for _, _, left in updates), "old news expired from the window"

    messages = scenario.outbox.messages
    assert messages, "matching items were forwarded"
    assert {m.address for m in messages} == {"carla@elysee.fr"}
    texts = [m.text for m in messages]
    assert len(texts) == len(set(texts)), "each item forwarded exactly once"

    report = Report("scenario_rss")
    report.table(
        ["metric", "value", "paper behaviour"],
        [
            ["instants simulated", scenario.clock.now, "—"],
            ["news stream tuples", len(scenario.environment.relation("news")),
             "a tuple per new RSS item (periodic poll)"],
            ["sites", ", ".join(sorted(scenario.feeds)),
             "Le Monde, Le Figaro, CNN Europe"],
            ["window updates", len(updates),
             "result continuously updated (insert + expire)"],
            ["matching items now", len(relation), "items of the last window"],
            ["messages forwarded", len(messages),
             "news of interest sent to a contact"],
            ["duplicate sends", len(texts) - len(set(texts)), "0"],
        ],
        title="RSS feeds (Section 5.2, experiment 2) — keyword 'Obama', window 20",
    )
    report.table(
        ["t", "entered", "expired"],
        [list(u) for u in updates[:12]],
        title="Window update trace (first 12 changes)",
    )
    report.emit()
