"""The server replay differential (the PR's acceptance invariant).

Every subscriber's delta stream — *including* slow consumers whose
bounded queues coalesced under overflow — must replay to exactly the
``shared``-engine result relation at each instant it observes: after
applying a queue entry spanning ``[first, last]``, the client replica
equals the query result at instant ``last``.  Fast consumers observe
every instant; slow ones observe a subsequence — but never a wrong
state, and all converge to the same final relation.

Subscribers here are in-process (no sockets): the delivery queues are
driven directly at scripted consumption cadences, which makes the
overflow/coalesce schedule deterministic.  An independently driven
naive-engine PEMS supplies the oracle, so the chain
``naive ≡ shared ≡ server wire stream`` is pinned end to end.
"""

import asyncio

from repro.server import SubscriptionServer

from tests.server.scenario import ALL_SQL, HOT_SQL, Churn, make_pems

TICKS = 48

#: Consumption cadences: a consumer with cadence k drains its queue only
#: every k-th instant.  Depth 4 against cadence 9 forces heavy overflow.
CADENCES = {"fast": 1, "medium": 3, "slow": 9}


class FakeSession:
    """The session shape ``SubscriptionServer.subscribe`` needs."""

    def __init__(self, client_id):
        self.client_id = client_id
        self.subscriptions = {}


def oracle_results(sql: str, ticks: int) -> dict[int, frozenset]:
    """Instant → result tuples from an independent naive-engine run."""
    pems = make_pems(engine="naive")
    churn = Churn(pems)
    query = pems.queries.register_continuous_sql(sql, name="oracle")
    results = {}
    for _ in range(ticks):
        churn.step()
        pems.tick()
        results[pems.clock.now] = frozenset(query.last_result.relation.tuples)
    return results


def drive(server, sql, ticks, queue_depth_note=None):
    """Run the scripted churn with one subscriber per cadence; replay and
    check each stream against the naive oracle at every observed instant."""
    oracle = oracle_results(sql, ticks)
    churn = Churn(server.pems)
    consumers = {
        name: {
            "sub": server.subscribe(FakeSession(name), sql, name),
            "cadence": cadence,
            "state": set(),
            "observed": 0,
        }
        for name, cadence in CADENCES.items()
    }

    async def scenario():
        for _ in range(ticks):
            churn.step()
            instant = server.tick()
            for consumer in consumers.values():
                if instant % consumer["cadence"]:
                    continue
                await drain(consumer)
        for consumer in consumers.values():  # final catch-up drain
            await drain(consumer)

    async def drain(consumer):
        queue = consumer["sub"].queue
        while queue.lag:
            entry = await queue.get()
            state = consumer["state"]
            # Contract-clean against the replica...
            assert not entry.delta.inserted & state
            assert entry.delta.deleted <= state
            state -= entry.delta.deleted
            state |= entry.delta.inserted
            # ...and exactly the oracle relation at the entry's last
            # instant, coalesced or not.
            assert state == oracle[entry.last], (
                f"replica diverged at instant {entry.last} "
                f"(coalesced={entry.coalesced})"
            )
            consumer["observed"] += 1

    asyncio.run(scenario())
    final = oracle[max(oracle)]
    for name, consumer in consumers.items():
        assert consumer["state"] == final, name
    return consumers


class TestSharedEngineReplay:
    def test_all_cadences_replay_exactly(self):
        server = SubscriptionServer(make_pems(), queue_depth=4)
        consumers = drive(server, HOT_SQL, TICKS)
        fast = consumers["fast"]
        slow = consumers["slow"]
        # Non-vacuous: the fast consumer saw (nearly) every instant, the
        # slow consumer was actually coalesced under overflow.
        assert fast["observed"] > slow["observed"]
        assert slow["sub"].queue.coalesced > 0
        assert server.obs.metrics.counter(
            "serena_server_coalesced_total", "", client="slow", sub="slow"
        ).value == slow["sub"].queue.coalesced

    def test_projection_query_replays(self):
        """π can collapse distinct rows — the deltas stay set-exact."""
        server = SubscriptionServer(make_pems(), queue_depth=4)
        drive(server, ALL_SQL, TICKS)

    def test_net_zero_spans_may_drop_but_states_never_lie(self):
        """With depth 2 the slow consumer's merges routinely net out;
        dropped spans must not desynchronize the replica."""
        server = SubscriptionServer(make_pems(), queue_depth=2)
        consumers = drive(server, HOT_SQL, TICKS)
        assert consumers["slow"]["sub"].queue.coalesced > 0
