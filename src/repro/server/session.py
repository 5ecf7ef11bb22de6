"""One connected client: the reader loop and per-subscription pumps.

A :class:`ClientSession` owns one TCP connection speaking the JSONL
protocol.  Its ``run`` loop parses one operation per line; each
subscription it registers gets its own *pump* task that awaits the
subscription's delivery queue and writes ``delta`` lines to the socket,
each spliced from the subscription's header and the entry's shared,
once-encoded body.  Backpressure composes naturally: a slow socket
blocks only its own session's ``drain()``, the pump stops consuming,
the bounded queue fills, and overflow coalescing kicks in — the tick
loop never waits.

Errors are per-operation: a malformed line, a rejected registration or a
bad query produces an ``error`` message and the session lives on; only
EOF, ``quit`` or a transport failure end it.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.errors import SerenaError
from repro.server.admission import AdmissionError
from repro.server.delivery import DeliveryQueue, QueuedDelta
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    delta_header,
    delta_line,
    encode,
    render_rows,  # noqa: F401 - kept bound here: the e2e tracer rebinds it
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.service import ServerQuery, SubscriptionServer

__all__ = ["ClientSession", "Subscription"]


class Subscription:
    """One (client, continuous query) pairing with its delivery queue.

    Its ``serena_server_{lag,coalesced_total,dropped_total}`` series read
    the queue when the registry is read; :meth:`release` freezes them.
    """

    __slots__ = ("name", "query", "queue", "client_id", "task", "header", "_series")

    def __init__(
        self,
        name: str,
        query: "ServerQuery",
        queue: DeliveryQueue,
        client_id: str,
        metrics,
    ):
        self.name = name
        self.query = query
        self.queue = queue
        self.client_id = client_id
        self.task: asyncio.Task | None = None
        #: The per-subscription head of every delta line it delivers.
        self.header = delta_header(name)
        self._series = (
            metrics.read_through(
                "serena_server_lag",
                "gauge",
                lambda: queue.lag,
                "Pending delivery-queue entries per subscription",
                client=client_id,
                sub=name,
            ),
            metrics.read_through(
                "serena_server_coalesced_total",
                "counter",
                lambda: queue.coalesced,
                "Overflow merges per subscription",
                client=client_id,
                sub=name,
            ),
            metrics.read_through(
                "serena_server_dropped_total",
                "counter",
                lambda: queue.dropped,
                "Net-zero coalesced spans dropped per subscription",
                client=client_id,
                sub=name,
            ),
        )

    def line(self, entry: QueuedDelta) -> bytes:
        """``entry`` as this subscription's ``delta`` wire line."""
        return delta_line(self.header, entry.body, entry.coalesced)

    def release(self) -> None:
        """Freeze the per-subscription series at their final values."""
        for series in self._series:
            series.freeze()


class ClientSession:
    """The JSONL protocol endpoint for one connection."""

    def __init__(
        self,
        server: "SubscriptionServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        client_id: str,
    ):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.client_id = client_id
        self.subscriptions: dict[str, Subscription] = {}
        self._quitting = False
        self._write_lock = asyncio.Lock()

    # -- outbound ----------------------------------------------------------------

    async def send(self, message: dict) -> None:
        async with self._write_lock:
            self.writer.write(encode(message))
            await self.writer.drain()

    async def send_batch(self, lines: list[bytes]) -> None:
        """Pre-encoded ``lines``, in order, as one ``writelines`` and one
        drain — the per-tick batching of the delivery pumps."""
        async with self._write_lock:
            self.writer.writelines(lines)
            await self.writer.drain()

    async def _send_error(self, reason: str, detail: str) -> None:
        await self.send(
            {"type": "error", "reason": reason, "detail": detail}
        )

    # -- the reader loop ---------------------------------------------------------

    async def run(self, first_line: bytes | None = None) -> None:
        server = self.server
        await self.send(
            {
                "type": "hello",
                "server": "serena",
                "instant": server.pems.clock.now,
                "client": self.client_id,
                "max_queries": server.admission.max_queries_per_client,
            }
        )
        try:
            line = first_line
            while not self._quitting:
                if line is None:
                    line = await self.reader.readline()
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    await self._send_error("protocol", "line too long")
                    break
                try:
                    await self._handle(decode_line(line))
                except ProtocolError as exc:
                    await self._send_error("protocol", str(exc))
                except AdmissionError as exc:
                    await self._send_error(exc.reason, str(exc))
                except SerenaError as exc:
                    await self._send_error("query", str(exc))
                line = None
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await self.close()

    async def _handle(self, message: dict) -> None:
        op = message["op"]
        if op == "register":
            await self._op_register(message)
        elif op == "deregister":
            await self._op_deregister(message)
        elif op == "ping":
            await self.send(
                {"type": "pong", "instant": self.server.pems.clock.now}
            )
        elif op == "quit":
            self._quitting = True
            await self.send({"type": "bye"})
        else:
            raise ProtocolError(f"unsupported op {op!r}")

    async def _op_register(self, message: dict) -> None:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("register needs a non-empty 'sql' string")
        name = message.get("name") or f"q{len(self.subscriptions) + 1}"
        if not isinstance(name, str):
            raise ProtocolError("'name' must be a string")
        if name in self.subscriptions:
            raise ProtocolError(f"subscription {name!r} already exists")
        subscription = self.server.subscribe(self, sql, name)
        self.subscriptions[name] = subscription
        subscription.task = asyncio.ensure_future(self._pump(subscription))
        await self.send(
            {
                "type": "registered",
                "name": name,
                "sql": subscription.query.sql,
                "instant": self.server.pems.clock.now,
            }
        )

    async def _op_deregister(self, message: dict) -> None:
        name = message.get("name")
        subscription = self.subscriptions.get(name)
        if subscription is None:
            raise ProtocolError(f"no subscription named {name!r}")
        del self.subscriptions[name]
        self.server.unsubscribe(subscription)
        await self.send({"type": "deregistered", "name": name})

    # -- the delivery pump (one task per subscription) ----------------------------

    async def _pump(self, subscription: Subscription) -> None:
        server = self.server
        queue = subscription.queue
        try:
            while True:
                entry = await queue.get()
                if entry is None:
                    break
                # Everything else already pending rides the same
                # writelines: one syscall per socket per tick, FIFO
                # order (and so delivery order) unchanged.
                batch = [entry, *queue.drain_ready()]
                await self.send_batch([subscription.line(e) for e in batch])
                server.delivered(batch)
        except (ConnectionError, asyncio.CancelledError):
            pass

    # -- teardown ----------------------------------------------------------------

    async def close(self) -> None:
        pending = list(self.subscriptions.values())
        self.subscriptions.clear()
        for subscription in pending:
            self.server.unsubscribe(subscription)
        # Unsubscribing closed the queues; pumps flush what's pending and
        # exit on the ``None`` sentinel (or on the dying transport).
        tasks = [s.task for s in pending if s.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self.server.forget_session(self)
        writer = self.writer
        writer.close()
        try:
            # Bounded for the same reason as the server's _close_quietly:
            # an aborted peer can leave wait_closed pending forever.
            await asyncio.wait_for(writer.wait_closed(), 1.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass

    def __repr__(self) -> str:
        return (
            f"ClientSession({self.client_id}, "
            f"{len(self.subscriptions)} subscriptions)"
        )
