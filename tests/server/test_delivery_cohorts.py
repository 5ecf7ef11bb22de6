"""Model-based differential: cohort-shared delivery ≡ private queues.

The subscribers of one served query share copy-on-write delivery
cohorts (:mod:`repro.server.delivery`).  The model here is the queue
each subscriber used to own outright — a private bounded FIFO that
every publish is appended to — and Hypothesis drives both through the
same interleavings of subscribe (cold or with a warm snapshot), tick
publish, ``drain_ready``, ``get`` (including waiting ones), ``close``
and unsubscribe.  At every step each subscription's delivered
``(first, last, delta, coalesced)`` sequence, ``coalesced``,
``dropped`` and ``lag`` must equal its model's, waiting consumers must
wake in the same order, and the cohort set stays bounded.
"""

from __future__ import annotations

import asyncio
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.delta import Delta
from repro.server.delivery import Cohorts, DeliveryQueue, QueuedDelta

UNIVERSE = (("a",), ("b",), ("c",))


class PrivateQueue:
    """The model: one unshared bounded queue per subscriber."""

    def __init__(self, depth: int):
        self.depth = depth
        self._entries: deque[QueuedDelta] = deque()
        self._ready = asyncio.Event()
        self._closed = False
        self.published = 0
        self.delivered = 0
        self.coalesced = 0
        self.dropped = 0

    def publish(self, entry: QueuedDelta) -> None:
        if self._closed:
            return
        entries = self._entries
        entries.append(entry)
        self.published += 1
        if len(entries) > self.depth:
            older = entries.popleft()
            newer = entries.popleft()
            merged = older.merge(newer)
            self.coalesced += 1
            if merged.delta:
                entries.appendleft(merged)
            else:
                self.dropped += 1
        self._ready.set()

    def close(self) -> None:
        self._closed = True
        self._ready.set()

    async def get(self) -> QueuedDelta | None:
        while True:
            if self._entries:
                entry = self._entries.popleft()
                self.delivered += 1
                if not self._entries and not self._closed:
                    self._ready.clear()
                return entry
            if self._closed:
                return None
            self._ready.clear()
            await self._ready.wait()

    def drain_ready(self) -> list[QueuedDelta]:
        batch = list(self._entries)
        self._entries.clear()
        self.delivered += len(batch)
        if not self._closed:
            self._ready.clear()
        return batch

    @property
    def lag(self) -> int:
        return len(self._entries)


def seen(entry: QueuedDelta | None):
    if entry is None:
        return None
    delta = entry.delta
    return (
        entry.first,
        entry.last,
        frozenset(delta.inserted),
        frozenset(delta.deleted),
        entry.coalesced,
    )


class Pair:
    """One subscription: the real queue, its model, what each delivered."""

    def __init__(self, index: int, real: DeliveryQueue, model: PrivateQueue):
        self.index = index
        self.real = real
        self.model = model
        self.got_real: list = []
        self.got_model: list = []
        self.waiting: tuple[asyncio.Task, asyncio.Task] | None = None
        self.tracked = True  # False once unsubscribed (nobody drains it)


OPS = st.tuples(
    st.sampled_from(
        ("subscribe", "warm", "tick", "tick", "drain", "get", "close", "unsubscribe")
    ),
    st.integers(0, 5),
    st.sets(st.sampled_from(UNIVERSE)),
)


@settings(max_examples=250, deadline=None)
@given(depth=st.integers(2, 5), ops=st.lists(OPS, max_size=60))
def test_cohorts_deliver_what_private_queues_would(depth, ops):
    asyncio.run(_play(depth, ops))


async def _play(depth: int, ops) -> None:
    cohorts = Cohorts(depth)
    pairs: list[Pair] = []
    truth: frozenset = frozenset()
    instant = 0
    woken_real: list[int] = []
    woken_model: list[int] = []

    async def settle() -> None:
        for _ in range(3):
            await asyncio.sleep(0)
        for pair in pairs:
            if pair.waiting is None:
                continue
            real, model = pair.waiting
            assert real.done() == model.done()
            if real.done():
                pair.got_real.append(seen(real.result()))
                pair.got_model.append(seen(model.result()))
                pair.waiting = None

    def waiter(pair: Pair, queue, log: list[int]) -> asyncio.Task:
        async def wait():
            entry = await queue.get()
            log.append(pair.index)
            return entry

        return asyncio.ensure_future(wait())

    for op, index, values in ops:
        target = pairs[index % len(pairs)] if pairs else None
        if op in ("subscribe", "warm"):
            if len(pairs) == 6:
                continue
            real = DeliveryQueue(cohorts=cohorts)
            pair = Pair(len(pairs), real, PrivateQueue(depth))
            pairs.append(pair)
            if op == "warm" and truth:
                snapshot = QueuedDelta(instant, instant, Delta(truth, frozenset()))
                pair.real.publish(snapshot)
                pair.model.publish(snapshot)
        elif op == "tick":
            instant += 1
            new = frozenset(values)
            delta = Delta(new - truth, truth - new)
            truth = new
            if delta:  # the server publishes only non-empty deltas
                entry = QueuedDelta(instant, instant, delta, 0, 0.0)
                cohorts.publish(entry)
                for pair in pairs:
                    pair.model.publish(entry)
        elif target is None or not target.tracked or target.waiting is not None:
            continue
        elif op == "drain":
            target.got_real.extend(map(seen, target.real.drain_ready()))
            target.got_model.extend(map(seen, target.model.drain_ready()))
        elif op == "get":
            target.waiting = (
                waiter(target, target.real, woken_real),
                waiter(target, target.model, woken_model),
            )
        elif op == "close":
            target.real.close()
            target.model.close()
        else:  # unsubscribe: closed, and nobody drains it again
            target.real.close()
            target.model.close()
            target.tracked = False
        await settle()
        _check(cohorts, pairs, depth)
        assert woken_real == woken_model

    for pair in pairs:  # everyone drains; the cohort set collapses
        if pair.waiting is None and pair.tracked:
            pair.got_real.extend(map(seen, pair.real.drain_ready()))
            pair.got_model.extend(map(seen, pair.model.drain_ready()))
    _check(cohorts, pairs, depth)
    live = [p for p in pairs if not p.real.closed]
    if all(p.real.lag == 0 for p in live):
        assert len(cohorts) == (1 if live else 0)
    for pair in pairs:
        if pair.waiting is not None:
            for task in pair.waiting:
                task.cancel()


def _check(cohorts: Cohorts, pairs: list[Pair], depth: int) -> None:
    for pair in pairs:
        real, model = pair.real, pair.model
        assert pair.got_real == pair.got_model
        assert real.lag == model.lag <= depth
        assert real.coalesced == model.coalesced
        assert real.dropped == model.dropped
        assert real.published == model.published
        assert real.delivered == model.delivered
    live = [p.real for p in pairs if not p.real.closed]
    assert len(cohorts) <= len(live) + 1
    members = [q for cohort in cohorts for q in cohort.members]
    assert sorted(map(id, members)) == sorted(map(id, live))  # closed: in none
    # A never-draining subscriber pins at most ``depth`` entries.
    assert all(len(cohort.entries) <= depth for cohort in cohorts)


def test_waiters_wake_in_subscription_order_whatever_order_they_blocked():
    async def scenario():
        cohorts = Cohorts(4)
        queues = [DeliveryQueue(cohorts=cohorts) for _ in range(3)]
        woken: list[int] = []

        async def consume(i):
            await queues[i].get()
            woken.append(i)

        tasks = [asyncio.ensure_future(consume(i)) for i in (2, 0, 1)]
        await asyncio.sleep(0)
        cohorts.publish(QueuedDelta(1, 1, Delta(frozenset(UNIVERSE), frozenset())))
        await asyncio.gather(*tasks)
        assert woken == [0, 1, 2]
        assert len(cohorts) == 1  # all drained: one fresh cohort

    asyncio.run(scenario())


def test_slow_cohort_merges_once_for_all_members():
    cohorts = Cohorts(2)
    slow = [DeliveryQueue(cohorts=cohorts) for _ in range(50)]
    for τ, rows in enumerate(({("a",)}, {("b",)}, {("c",)}, {("a",)}), start=1):
        cohorts.publish(QueuedDelta(τ, τ, Delta(frozenset(rows), frozenset())))
    (cohort,) = cohorts
    assert cohort.coalesced == 2 and len(cohort.entries) == 2
    assert all(q.coalesced == 2 and q.lag == 2 for q in slow)
    assert slow[0].drain_ready()[0] is slow[1].drain_ready()[0]  # one shared entry
