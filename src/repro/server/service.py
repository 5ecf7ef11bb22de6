"""The subscription server: the tick loop and the subscriber registry.

One :class:`SubscriptionServer` wraps one PEMS and owns its virtual
clock.  Distinct continuous queries — keyed by whitespace-normalized
SQL — register once on the wrapped query processor regardless of
subscriber count, and fan out once per query too: each subscriber gets
a bounded delivery queue that shares a copy-on-write buffer (a
*cohort*) with the query's other subscribers that have consumed up to
the same point.  The flow per instant:

1. ``tick()`` advances the PEMS (every registered query evaluates under
   the engine's ordinary scheduling, single-threaded on the clock);
2. ``_publish`` reads each query's reported delta and appends it once
   per cohort — synchronous, O(cohorts) not O(subscribers), never
   blocking on any socket;
3. each subscription's pump task delivers from its queue at whatever
   pace its socket sustains, splicing its own header onto the entry's
   once-encoded body (see :mod:`repro.server.delivery` for the cohort
   and overflow semantics).

A warm subscriber — joining a query that has already evaluated — first
receives a synthetic *snapshot* delta (the query's current result as
insertions at its last instant), the wire equivalent of the engine's
fresh-over-warm ``fresh_view()`` catch-up, so every client replica
starts from the true standing state.

The TCP listener also answers HTTP ``GET /subscribe?sql=…`` with a
Server-Sent-Events stream carrying the same JSON payloads (one
``data:`` event per message), sniffed from the first request line —
browsers subscribe on the same port.
"""

from __future__ import annotations

import asyncio
import time
import urllib.parse
from typing import Optional

from repro.errors import SerenaError
from repro.exec.delta import Delta
from repro.obs.observe import Observability
from repro.pems.pems import PEMS
from repro.server.admission import AdmissionControl, AdmissionError
from repro.server.delivery import Cohorts, DeliveryQueue, QueuedDelta
from repro.server.protocol import (
    encode,
    sse_error_response,
    sse_event,
    sse_frame,
    sse_response_head,
)
from repro.server.session import ClientSession, Subscription

__all__ = ["ServerQuery", "SubscriptionServer"]

#: Delivery-latency buckets: sub-millisecond to seconds (wall time from
#: publish to socket write, per entry).
_DELIVERY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def normalize_sql(sql: str) -> str:
    """The sharing key: whitespace-collapsed, semicolon-stripped text."""
    return " ".join(sql.split()).rstrip(";").strip()


class ServerQuery:
    """One distinct continuous query, its current subscriber set and
    their delivery cohorts."""

    __slots__ = (
        "key", "sql", "name", "continuous", "subscribers", "cohorts", "published"
    )

    def __init__(self, key: str, sql: str, name: str, continuous, depth: int):
        self.key = key
        self.sql = sql
        self.name = name
        self.continuous = continuous
        self.subscribers: dict[Subscription, None] = {}
        self.cohorts = Cohorts(depth)
        #: False until the first post-evaluation publish.  That first
        #: publish sends the full result as a snapshot rather than the
        #: engine's reported delta: a scan's Section 4.2 reported delta
        #: is journal-exact at the evaluation instant and omits rows
        #: standing from *before* registration, which a cold subscriber
        #: replica has never seen.
        self.published = False


class SubscriptionServer:
    """An asyncio service pushing continuous-query deltas to clients."""

    def __init__(
        self,
        pems: Optional[PEMS] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 64,
        tick_interval: float | None = None,
        admission: AdmissionControl | None = None,
    ):
        self.pems = pems if pems is not None else PEMS()
        self.obs: Observability = self.pems.obs
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        #: Seconds between automatic ticks; None = manual ``tick()`` only
        #: (deterministic mode — what the tests and the differential use).
        self.tick_interval = tick_interval
        self.admission = (
            admission
            if admission is not None
            else AdmissionControl(observe=self.obs)
        )
        self._queries: dict[str, ServerQuery] = {}
        self._sessions: dict[ClientSession, None] = {}
        self._sse_clients = 0
        self._client_seq = 0
        self._query_seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._ticker: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False
        metrics = self.obs.metrics
        self._clients_gauge = metrics.gauge(
            "serena_server_clients", "Connected clients (JSONL + SSE)"
        )
        self._subscriptions_gauge = metrics.gauge(
            "serena_server_subscriptions", "Live subscriptions"
        )
        self._queries_gauge = metrics.gauge(
            "serena_server_queries", "Distinct continuous queries served"
        )
        self._deltas_published = metrics.counter(
            "serena_server_deltas_published_total",
            "Non-empty per-instant deltas fanned out to subscribers",
        )
        self.messages_sent = metrics.counter(
            "serena_server_messages_sent_total",
            "Delta messages written to client sockets",
        )
        self._delivery_hist = metrics.histogram(
            "serena_server_delivery_seconds",
            "Wall time from delta publish to socket write",
            buckets=_DELIVERY_BUCKETS,
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "SubscriptionServer":
        """Bind the listener (and the ticker when an interval is set)."""
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.tick_interval is not None:
            self._ticker = asyncio.ensure_future(self._tick_loop())
        return self

    async def _tick_loop(self) -> None:
        try:
            while not self._closed:
                self.tick()
                await asyncio.sleep(self.tick_interval)
        except asyncio.CancelledError:
            pass

    def tick(self) -> int:
        """Advance one instant and fan out the resulting deltas.

        Synchronous on purpose: evaluation stays single-threaded on the
        virtual clock; only delivery (the pump tasks) is asynchronous.
        """
        instant = self.pems.tick()
        self._publish(instant)
        return instant

    async def shutdown(self) -> None:
        """Orderly teardown: stop ticking, close every session, release
        every query (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions):
            await session.close()
        for query in list(self._queries.values()):
            for subscription in list(query.subscribers):
                self.unsubscribe(subscription)
        # Reap the connection handlers (their queues just closed, their
        # sockets just died) before the caller tears the loop down —
        # otherwise asyncio.run cancels them mid-close and the streams
        # machinery logs spurious CancelledError callbacks.
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        self._sync_clients_gauge()

    # -- connections ---------------------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            self.admission.admit_client(self._connected())
        except AdmissionError as exc:
            writer.write(
                encode(
                    {"type": "error", "reason": exc.reason, "detail": str(exc)}
                )
            )
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        try:
            first = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            first = b""
        if not first:
            writer.close()
            return
        if first.split(b" ", 1)[0] in (b"GET", b"HEAD"):
            await self._serve_sse(first, reader, writer)
        else:
            self._client_seq += 1
            session = ClientSession(
                self, reader, writer, f"c{self._client_seq}"
            )
            self._sessions[session] = None
            self._sync_clients_gauge()
            await session.run(first_line=first)

    def _connected(self) -> int:
        return len(self._sessions) + self._sse_clients

    def forget_session(self, session: ClientSession) -> None:
        self._sessions.pop(session, None)
        self._sync_clients_gauge()

    # -- subscriptions ---------------------------------------------------------------

    def subscribe(
        self, session, sql: str, name: str
    ) -> Subscription:
        """Admit + register one subscription; returns it with any warm
        snapshot catch-up already queued."""
        key = normalize_sql(sql)
        if not key:
            raise SerenaError("empty query text")
        query = self._queries.get(key)
        self.admission.admit_subscription(
            len(session.subscriptions),
            len(self._queries),
            shared=query is not None,
        )
        if query is None:
            self._query_seq += 1
            server_name = f"server-q{self._query_seq}"
            continuous = self.pems.queries.register_continuous_sql(
                key, name=server_name
            )
            query = ServerQuery(
                key, sql, server_name, continuous, self.queue_depth
            )
            self._queries[key] = query
            self._queries_gauge.set(len(self._queries))
        subscription = Subscription(
            name,
            query,
            DeliveryQueue(cohorts=query.cohorts),
            session.client_id,
            self.obs.metrics,
        )
        query.subscribers[subscription] = None
        self._subscriptions_gauge.inc()
        self._queue_snapshot(query, subscription)
        return subscription

    def _queue_snapshot(
        self, query: ServerQuery, subscription: Subscription
    ) -> None:
        """Warm catch-up: the query's standing result as one insertion
        delta at its last evaluation instant (nothing for cold queries —
        they evaluate at the next tick, and empty results need no wire)."""
        result = query.continuous.last_result
        if result is None:
            return
        tuples = frozenset(result.relation.tuples)
        if not tuples:
            return
        subscription.queue.publish(
            QueuedDelta(
                result.instant,
                result.instant,
                Delta(tuples, frozenset()),
                0,
                time.perf_counter(),
            )
        )

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop one subscription; the underlying query deregisters when
        its last subscriber leaves (idempotent per subscription)."""
        query = subscription.query
        if subscription not in query.subscribers:
            return
        del query.subscribers[subscription]
        self._subscriptions_gauge.dec()
        subscription.queue.close()
        subscription.release()
        if not query.subscribers and self._queries.get(query.key) is query:
            del self._queries[query.key]
            self._queries_gauge.set(len(self._queries))
            self.pems.queries.deregister_continuous(query.name)

    # -- delta fan-out ---------------------------------------------------------------

    def _publish(self, instant: int) -> None:
        """Append each query's reported delta once per delivery cohort."""
        now = time.perf_counter()
        published = 0
        for query in self._queries.values():
            continuous = query.continuous
            result = continuous.last_result
            if result is None or result.instant != instant:
                continue  # failed/skipped this tick; nothing to report
            if not query.published:
                # First publish after registration: full-result
                # snapshot (cold subscribers start from the empty
                # replica — see ServerQuery.published).
                query.published = True
                tuples = frozenset(result.relation.tuples)
                if not tuples:
                    continue
                row = Delta(tuples, frozenset())
            else:
                delta = continuous.last_reported_delta
                if not delta:
                    continue
                row = Delta(
                    frozenset(delta.inserted), frozenset(delta.deleted)
                )
            query.cohorts.publish(QueuedDelta(instant, instant, row, 0, now))
            published += 1
        if published:
            self._deltas_published.inc(published)

    def delivered(self, batch: list[QueuedDelta]) -> None:
        """Account one batch just written to a socket."""
        now = time.perf_counter()
        for queued in batch:
            if queued.published_at:
                self._delivery_hist.observe(now - queued.published_at)
        self.messages_sent.inc(len(batch))

    # -- the SSE shim ----------------------------------------------------------------

    async def _serve_sse(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer ``GET /subscribe?sql=…[&name=…]`` with an event stream."""
        try:
            while True:  # drain request headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        try:
            target = request_line.split()[1].decode("utf-8", "replace")
        except IndexError:
            target = "/"
        parsed = urllib.parse.urlsplit(target)
        params = urllib.parse.parse_qs(parsed.query)
        sql = (params.get("sql") or [""])[0]
        name = (params.get("name") or ["sse"])[0]
        if parsed.path != "/subscribe" or not sql.strip():
            writer.write(
                sse_error_response(
                    "400 Bad Request", "expected GET /subscribe?sql=SELECT..."
                )
            )
            await _close_quietly(writer)
            return
        self._client_seq += 1
        self._sse_clients += 1
        shim = _SSESession(f"sse{self._client_seq}")
        try:
            subscription = self.subscribe(shim, sql, name)
        except (AdmissionError, SerenaError) as exc:
            self._sse_clients -= 1
            writer.write(sse_error_response("409 Conflict", str(exc)))
            await _close_quietly(writer)
            return
        self._sync_clients_gauge()
        try:
            writer.write(sse_response_head())
            writer.write(
                sse_event(
                    {
                        "type": "hello",
                        "server": "serena",
                        "instant": self.pems.clock.now,
                        "client": shim.client_id,
                    }
                )
            )
            await writer.drain()
            while True:
                entry = await subscription.queue.get()
                if entry is None:
                    break
                # Same batching as the JSONL pump: whatever else is
                # already pending goes out in the same writelines.
                batch = [entry, *subscription.queue.drain_ready()]
                writer.writelines(
                    sse_frame(subscription.line(e)) for e in batch
                )
                await writer.drain()
                self.delivered(batch)
        except (ConnectionError, OSError):
            pass
        finally:
            self.unsubscribe(subscription)
            self._sse_clients -= 1
            self._sync_clients_gauge()
            await _close_quietly(writer)

    # -- introspection ----------------------------------------------------------------

    def _sync_clients_gauge(self) -> None:
        self._clients_gauge.set(self._connected())

    @property
    def queries(self) -> dict[str, ServerQuery]:
        return dict(self._queries)

    def summary(self) -> dict:
        """The ``.serve`` status payload."""
        return {
            "instant": self.pems.clock.now,
            "port": self.port,
            "clients": self._connected(),
            "queries": len(self._queries),
            "subscriptions": int(self._subscriptions_gauge.value),
            "deltas_published": int(self._deltas_published.value),
            "messages_sent": int(self.messages_sent.value),
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"port={self.port}"
        return (
            f"SubscriptionServer({state}, "
            f"clients={self._connected()}, queries={len(self._queries)})"
        )


class _SSESession:
    """The minimal session shape ``subscribe`` needs for an SSE client."""

    __slots__ = ("client_id", "subscriptions")

    def __init__(self, client_id: str):
        self.client_id = client_id
        self.subscriptions: dict[str, Subscription] = {}


async def _close_quietly(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass
    writer.close()
    try:
        # Bounded: ``wait_closed`` can hang on an abruptly-aborted peer
        # (observed with a killed SSE client on CPython 3.11 streams).
        await asyncio.wait_for(writer.wait_closed(), 1.0)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass
