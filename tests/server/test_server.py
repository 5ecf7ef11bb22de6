"""End-to-end subscription-server tests over real loopback sockets.

Every test runs its own server in manual-tick mode — the test coroutine
calls ``server.tick()`` between protocol exchanges, so delivery is fully
deterministic (no wall-clock ticker)."""

import asyncio
import json
import urllib.parse

from repro.server import AdmissionControl, SubscriptionServer

from tests.server.scenario import ALL_SQL, HOT_SQL, Churn, make_pems


class WireClient:
    """A minimal JSONL protocol client for tests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int) -> "WireClient":
        """Open the connection and perform the ping handshake: the
        client speaks first (the server sniffs JSONL vs HTTP), then the
        server greets with ``hello`` before answering the ping."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        client = cls(reader, writer)
        await client.op(op="ping")
        client.hello = await client.expect("hello")
        await client.expect("pong")
        return client

    async def op(self, **message) -> None:
        self.writer.write((json.dumps(message) + "\n").encode())
        await self.writer.drain()

    async def recv(self) -> dict | None:
        line = await asyncio.wait_for(self.reader.readline(), 5)
        return json.loads(line) if line else None

    async def expect(self, kind: str) -> dict:
        message = await self.recv()
        assert message is not None and message["type"] == kind, message
        return message

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def started(pems=None, **kwargs) -> SubscriptionServer:
    server = SubscriptionServer(
        pems if pems is not None else make_pems(), **kwargs
    )
    await server.start()
    return server


def apply(state: set, message: dict) -> set:
    """Replay one delta message onto a client replica."""
    deleted = {tuple(row) for row in message["deleted"]}
    inserted = {tuple(row) for row in message["inserted"]}
    assert deleted <= state and not inserted & state
    return (state - deleted) | inserted


class TestProtocolFlow:
    def test_register_tick_delta(self):
        async def scenario():
            server = await started()
            churn = Churn(server.pems)
            try:
                client = await WireClient.connect(server.port)
                assert client.hello["client"] == "c1"
                await client.op(op="register", sql=HOT_SQL, name="hot")
                registered = await client.expect("registered")
                assert registered["name"] == "hot"
                churn.step()
                server.tick()
                delta = await client.expect("delta")
                assert delta["name"] == "hot"
                assert delta["first"] == delta["last"] == 1
                state = apply(set(), delta)
                assert state == churn.hot()
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_replay_tracks_result_over_many_ticks(self):
        async def scenario():
            server = await started()
            churn = Churn(server.pems)
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql=HOT_SQL, name="hot")
                await client.expect("registered")
                state: set = set()
                for _ in range(12):
                    churn.step()
                    server.tick()
                    message = await client.expect("delta")
                    state = apply(state, message)
                    assert state == churn.hot()
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_ping_and_quit(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="ping")
                pong = await client.expect("pong")
                assert pong["instant"] == 0
                await client.op(op="quit")
                await client.expect("bye")
                assert await client.recv() is None  # server closed
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_bad_sql_keeps_session_alive(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql="SELEKT nope")
                error = await client.expect("error")
                assert error["reason"] == "query"
                await client.op(op="ping")
                await client.expect("pong")
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_unknown_op_is_protocol_error(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="teleport")
                error = await client.expect("error")
                assert error["reason"] == "protocol"
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())


class TestSharingAndLifecycle:
    def test_same_sql_registers_once(self):
        async def scenario():
            server = await started()
            churn = Churn(server.pems)
            try:
                one = await WireClient.connect(server.port)
                two = await WireClient.connect(server.port)
                await one.op(op="register", sql=HOT_SQL, name="a")
                await one.expect("registered")
                # Same query modulo whitespace — shares the registration.
                await two.op(
                    op="register", sql="  " + HOT_SQL.replace(" ", "  ") + " ;"
                )
                await two.expect("registered")
                assert len(server.queries) == 1
                assert len(server.pems.queries.continuous_queries) == 1
                churn.step()
                server.tick()
                d1 = await one.expect("delta")
                d2 = await two.expect("delta")
                assert d1["inserted"] == d2["inserted"]
                await one.close()
                await two.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_warm_subscriber_gets_snapshot(self):
        async def scenario():
            server = await started()
            churn = Churn(server.pems)
            try:
                one = await WireClient.connect(server.port)
                await one.op(op="register", sql=HOT_SQL, name="hot")
                await one.expect("registered")
                for _ in range(5):
                    churn.step()
                    server.tick()
                    await one.expect("delta")
                two = await WireClient.connect(server.port)
                await two.op(op="register", sql=HOT_SQL, name="hot")
                await two.expect("registered")
                snapshot = await two.expect("delta")
                assert snapshot["first"] == snapshot["last"] == 5
                assert snapshot["deleted"] == []
                assert apply(set(), snapshot) == churn.hot()
                # And the next tick continues incrementally from there.
                churn.step()
                server.tick()
                state = apply(apply(set(), snapshot), await two.expect("delta"))
                assert state == churn.hot()
                await one.close()
                await two.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_deregister_releases_query(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql=HOT_SQL, name="hot")
                await client.expect("registered")
                await client.op(op="register", sql=ALL_SQL, name="all")
                await client.expect("registered")
                assert len(server.pems.queries.continuous_queries) == 2
                await client.op(op="deregister", name="hot")
                await client.expect("deregistered")
                assert len(server.queries) == 1
                assert len(server.pems.queries.continuous_queries) == 1
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_disconnect_releases_everything(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql=HOT_SQL)
                await client.expect("registered")
                await client.close()
                for _ in range(50):  # let the session unwind
                    if not server.queries:
                        break
                    await asyncio.sleep(0.01)
                assert not server.queries
                assert not server.pems.queries.continuous_queries
                assert server.summary()["clients"] == 0
            finally:
                await server.shutdown()

        asyncio.run(scenario())


class TestAdmission:
    def test_client_cap_closes_connection(self):
        async def scenario():
            admission = AdmissionControl(max_clients=1)
            server = await started(admission=admission)
            try:
                one = await WireClient.connect(server.port)
                # The rejection is written immediately on connect — the
                # client needs to send nothing to receive it.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                two = WireClient(reader, writer)
                error = await two.recv()
                assert error["type"] == "error"
                assert error["reason"] == "clients"
                assert await two.recv() is None
                await one.close()
                await two.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_per_client_query_cap(self):
        async def scenario():
            admission = AdmissionControl(max_queries_per_client=1)
            server = await started(admission=admission)
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql=HOT_SQL)
                await client.expect("registered")
                await client.op(op="register", sql=ALL_SQL)
                error = await client.expect("error")
                assert error["reason"] == "client_queries"
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_metrics_registered(self):
        async def scenario():
            server = await started()
            try:
                client = await WireClient.connect(server.port)
                await client.op(op="register", sql=HOT_SQL, name="hot")
                await client.expect("registered")
                metrics = server.obs.metrics
                assert (
                    metrics.gauge("serena_server_clients", "").value == 1
                )
                assert (
                    metrics.gauge("serena_server_queries", "").value == 1
                )
                assert (
                    metrics.gauge(
                        "serena_server_lag", "", client="c1", sub="hot"
                    ).value
                    == 0
                )
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())


class TestSse:
    def test_sse_subscribe_streams_deltas(self):
        async def scenario():
            server = await started()
            churn = Churn(server.pems)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                sql = urllib.parse.quote(HOT_SQL)
                writer.write(
                    f"GET /subscribe?sql={sql}&name=hot HTTP/1.1\r\n"
                    "Host: localhost\r\n\r\n".encode()
                )
                await writer.drain()
                status = await asyncio.wait_for(reader.readline(), 5)
                assert b"200" in status
                while (await reader.readline()) not in (b"\r\n", b"\n"):
                    pass  # headers
                first = await asyncio.wait_for(reader.readline(), 5)
                hello = json.loads(first[6:])
                assert hello["type"] == "hello"
                await reader.readline()  # the blank event separator
                churn.step()
                server.tick()
                event = await asyncio.wait_for(reader.readline(), 5)
                delta = json.loads(event[6:])
                assert delta["type"] == "delta" and delta["name"] == "hot"
                assert apply(set(), delta) == churn.hot()
                writer.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())

    def test_sse_bad_path_is_400(self):
        async def scenario():
            server = await started()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
                await writer.drain()
                status = await asyncio.wait_for(reader.readline(), 5)
                assert b"400" in status
                writer.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())
