"""Bounded delivery queues with coalesce-on-overflow, shared by cohort.

The tick loop publishes one :class:`QueuedDelta` per instant per served
query — synchronously, never blocking.  A consumer task awaits entries
and writes them to the socket; when the consumer is slower than the
clock, its buffer fills and *overflow coalesces*: the two oldest pending
entries merge into one via the two-delta ``coalesce``, spanning
``[older.first, newer.last]``.  Coalescing always evicts from the old
end, so the freshest instants keep their full resolution and the slow
consumer loses only intermediate states — by the coalesce laws
(``tests/property/test_prop_coalesce.py``), applying the merged entry
lands the client replica exactly where applying both originals would
have, so final state is lossless at any consumer speed.

A merge that nets to the empty delta (churn that cancelled out) drops
the entry entirely; the ``dropped`` counter records it, and the next
delivered entry's ``first`` still documents the skipped span.

**Cohorts.**  The subscribers of one query that have consumed up to the
same point would hold identical private buffers, so they share one,
copy-on-write.  :class:`Cohorts` (one per served query) owns these
buffers; publishing appends each entry once per cohort, O(cohorts) not
O(subscribers), and each cohort runs the overflow merge once for all of
its members.  A :class:`DeliveryQueue` reads its cohort's entries
without removing them; consuming takes all of them and joins the
query's current empty cohort, and anything that would make a queue
diverge from its cohort-mates (a partial ``get``, a per-queue
``publish``, ``close``) first gives it a private copy.  Members join a
cohort only before anything was published into it, so every member
sees exactly the publish sequence a private queue would have seen:
entries, merges, drops, ``lag`` and delivered order are those of one
unshared queue per subscriber (``tests/server/test_delivery_cohorts.py``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice

from repro.exec.delta import Delta
from repro.server import protocol

__all__ = ["Cohorts", "DeliveryQueue", "QueuedDelta"]


@dataclass(frozen=True)
class QueuedDelta:
    """One pending wire delta spanning instants ``[first, last]``."""

    first: int
    last: int
    delta: Delta
    #: Merges folded into this entry (0 for a fresh per-instant delta).
    coalesced: int = 0
    #: Publish wall-time of the *oldest* instant folded in (delivery-lag
    #: measurements want worst-case age, so merges keep the older stamp).
    published_at: float = 0.0

    def merge(self, newer: "QueuedDelta") -> "QueuedDelta":
        return QueuedDelta(
            self.first,
            newer.last,
            self.delta.coalesce(newer.delta),
            self.coalesced + newer.coalesced + 1,
            self.published_at,
        )

    @cached_property
    def body(self) -> bytes:
        """The shared middle of this entry's ``delta`` line, rendered
        and encoded once however many subscribers deliver it."""
        return protocol.delta_body(self.first, self.last, self.delta)


#: Creation order of queues: waiters wake in it, as they would if each
#: subscriber's private queue were published to in subscription order.
_ORDER = count()


class _Cohort:
    """One bounded buffer read by every queue in ``members``."""

    __slots__ = (
        "depth",
        "entries",
        "members",
        "waiters",
        "published",
        "coalesced",
        "dropped",
    )

    def __init__(self, depth: int, entries=()):
        self.depth = depth
        self.entries: deque[QueuedDelta] = deque(entries)
        self.members: set[DeliveryQueue] = set()
        #: Members blocked in ``get()``, woken by the next publish.
        self.waiters: dict[DeliveryQueue, None] = {}
        self.published = 0
        self.coalesced = 0
        self.dropped = 0

    def publish(self, entry: QueuedDelta) -> None:
        """Append one entry, coalescing the two oldest on overflow."""
        entries = self.entries
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
                self.dropped += 1  # the span netted to no change
        waiters = self.waiters
        if waiters:
            for queue in sorted(waiters, key=_order):
                queue._ready.set()
            waiters.clear()


def _order(queue: "DeliveryQueue") -> int:
    return queue._order


class Cohorts:
    """The delivery cohorts of one published stream (one served query)."""

    __slots__ = ("depth", "_live", "_fresh")

    def __init__(self, depth: int = 64):
        if depth < 2:
            raise ValueError("delivery queue depth must be at least 2")
        self.depth = depth
        self._live: dict[_Cohort, None] = {}
        #: The cohort nothing has been published into yet (created on
        #: demand): the only one a queue may join.
        self._fresh: _Cohort | None = None

    def publish(self, entry: QueuedDelta) -> None:
        """Append ``entry`` to every cohort."""
        for cohort in self._live:
            cohort.publish(entry)
        self._fresh = None

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self):
        return iter(self._live)

    # -- membership (driven by DeliveryQueue) -------------------------------------

    def _join_fresh(self) -> _Cohort:
        fresh = self._fresh
        if fresh is None:
            fresh = self._fresh = _Cohort(self.depth)
            self._live[fresh] = None
        return fresh

    def _fork(self, entries) -> _Cohort:
        cohort = _Cohort(self.depth, entries)
        self._live[cohort] = None
        return cohort

    def _leave(self, queue: "DeliveryQueue", cohort: _Cohort) -> None:
        cohort.members.discard(queue)
        cohort.waiters.pop(queue, None)
        if not cohort.members:
            self._live.pop(cohort, None)
            if cohort is self._fresh:
                self._fresh = None


class DeliveryQueue:
    """One subscription's bounded FIFO of :class:`QueuedDelta`: a view
    of its cohort in ``cohorts`` (a private set of its own by default)."""

    def __init__(self, depth: int = 64, cohorts: Cohorts | None = None):
        self._cohorts = cohorts if cohorts is not None else Cohorts(depth)
        self._order = next(_ORDER)
        self._ready = asyncio.Event()
        self._closed = False
        self.delivered = 0
        #: Counts banked from cohorts this queue has left.
        self._published = self._coalesced = self._dropped = 0
        self._cohort = self._cohorts._join_fresh()
        self._cohort.members.add(self)

    def _move(self, cohort: _Cohort) -> None:
        """Bank the current cohort's counts and switch to ``cohort``."""
        old = self._cohort
        self._published += old.published
        self._coalesced += old.coalesced
        self._dropped += old.dropped
        self._cohorts._leave(self, old)
        cohort.members.add(self)
        self._cohort = cohort

    def _owns(self, cohort: _Cohort) -> bool:
        """True if ``cohort`` is this queue's alone to mutate."""
        return len(cohort.members) == 1 and cohort is not self._cohorts._fresh

    # -- producer side (synchronous, non-blocking) --------------------------------

    def publish(self, entry: QueuedDelta) -> None:
        """Append one entry to this queue alone (a private copy first)."""
        if self._closed:
            return
        cohort = self._cohort
        if not self._owns(cohort):
            cohort = self._cohorts._fork(cohort.entries)
            self._move(cohort)
        cohort.publish(entry)
        self._ready.set()

    def close(self) -> None:
        """Stop the queue: pending entries still drain, then consumers
        get ``None`` (idempotent).  A closed queue is in no cohort."""
        if not self._closed:
            self._closed = True
            self._move(_Cohort(self._cohorts.depth, self._cohort.entries))
        self._ready.set()

    # -- consumer side (one writer task per subscription) -------------------------

    def _take(self, n: int) -> list[QueuedDelta]:
        """Consume the ``n`` oldest pending entries (``n`` ≥ 1)."""
        cohort = self._cohort
        entries = cohort.entries
        self.delivered += n
        if self._closed or (n < len(entries) and self._owns(cohort)):
            return [entries.popleft() for _ in range(n)]
        taken = list(islice(entries, n))
        if n < len(entries):
            self._move(self._cohorts._fork(islice(entries, n, None)))
        else:
            self._move(self._cohorts._join_fresh())
        return taken

    async def get(self) -> QueuedDelta | None:
        """The next entry, or ``None`` once closed and drained."""
        while True:
            if self._cohort.entries:
                return self._take(1)[0]
            if self._closed:
                return None
            self._ready.clear()
            self._cohort.waiters[self] = None
            await self._ready.wait()

    def drain_ready(self) -> list[QueuedDelta]:
        """Every entry pending *right now*, in FIFO order (possibly
        empty), without awaiting.  A writer that just awaited
        :meth:`get` calls this to collect the rest of the backlog and
        turn the whole batch into one ``writelines`` — one syscall per
        socket per tick instead of one per entry."""
        pending = len(self._cohort.entries)
        return self._take(pending) if pending else []

    # -- introspection -------------------------------------------------------------

    @property
    def depth(self) -> int:
        return self._cohorts.depth

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def published(self) -> int:
        return self._published + self._cohort.published

    @property
    def coalesced(self) -> int:
        return self._coalesced + self._cohort.coalesced

    @property
    def dropped(self) -> int:
        return self._dropped + self._cohort.dropped

    @property
    def lag(self) -> int:
        """Entries currently pending (the consumer's backlog)."""
        return len(self._cohort.entries)

    def __len__(self) -> int:
        return len(self._cohort.entries)

    def __repr__(self) -> str:
        return (
            f"DeliveryQueue({self.lag}/{self.depth} pending, "
            f"{self.delivered} delivered, {self.coalesced} coalesced, "
            f"{self.dropped} dropped)"
        )
