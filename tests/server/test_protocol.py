"""Wire-format tests: JSONL framing, row rendering, the SSE shim."""

import json

import pytest

from repro.exec.delta import Delta
from repro.obs.metrics import MetricsRegistry
from repro.server.delivery import DeliveryQueue, QueuedDelta
from repro.server.protocol import (
    ProtocolError,
    decode_line,
    encode,
    render_rows,
    sse_error_response,
    sse_event,
    sse_frame,
    sse_response_head,
)
from repro.server.session import Subscription


class TestFraming:
    def test_encode_is_one_line(self):
        line = encode({"type": "pong", "instant": 7})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"type": "pong", "instant": 7}

    def test_roundtrip(self):
        message = {"op": "register", "sql": "SELECT * FROM r", "name": "q"}
        assert decode_line(encode(message)) == message

    def test_rejects_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_line(b"{nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1, 2]\n")

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError, match="op"):
            decode_line(b'{"sql": "SELECT 1"}\n')

    def test_non_json_values_degrade_to_strings(self):
        line = encode({"type": "delta", "inserted": [[frozenset()]]})
        assert json.loads(line)  # default=str keeps the wire valid


class TestRows:
    def test_rows_are_sorted_lists(self):
        rows = render_rows({("b", 2.0), ("a", 1.0), ("a", 0.5)})
        assert rows == sorted(rows, key=repr)
        assert all(isinstance(row, list) for row in rows)
        assert ["a", 1.0] in rows

    def test_deterministic_across_set_orders(self):
        tuples = [("x", i) for i in range(20)]
        assert render_rows(frozenset(tuples)) == render_rows(
            frozenset(reversed(tuples))
        )


class TestSse:
    def test_response_head(self):
        head = sse_response_head()
        assert head.startswith(b"HTTP/1.1 200")
        assert b"text/event-stream" in head
        assert head.endswith(b"\r\n\r\n")

    def test_event_framing(self):
        event = sse_event({"type": "delta", "first": 1})
        assert event.startswith(b"data: ")
        assert event.endswith(b"\n\n")
        assert json.loads(event[6:]) == {"type": "delta", "first": 1}

    def test_error_response_has_length(self):
        response = sse_error_response("400 Bad Request", "nope")
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head
        assert f"Content-Length: {len(body)}".encode() in head


def _whole_message(name: str, entry: QueuedDelta) -> dict:
    """A ``delta`` message built field by field, the way the wire was
    rendered before lines were spliced from a shared body."""
    return {
        "type": "delta",
        "name": name,
        "first": entry.first,
        "last": entry.last,
        "inserted": render_rows(entry.delta.inserted),
        "deleted": render_rows(entry.delta.deleted),
        "coalesced": entry.coalesced,
    }


def _whole_sse(message: dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":"), default=str)
    return f"data: {payload}\n\n".encode("utf-8")


ROWS = frozenset({("a", 1.5), ("b", None), ("c", -0.0), ("d", 1e300), ("é\"\\", 2)})


class TestSplicedDeltaLine:
    @pytest.mark.parametrize(
        "name", ["q", "zoné-ß", 'say "hi"', "back\\slash", "日本語", "tab\tnl\n"]
    )
    @pytest.mark.parametrize(
        "entry",
        [
            QueuedDelta(3, 3, Delta(ROWS, frozenset())),
            QueuedDelta(3, 7, Delta(frozenset(), ROWS), coalesced=4),
            QueuedDelta(1, 2, Delta(ROWS, frozenset({("z", "ü", 0.1)})), coalesced=1),
            QueuedDelta(5, 5, Delta(frozenset({(frozenset({1}), 2.0)}), frozenset())),
        ],
    )
    def test_bytes_equal_the_whole_message_encoding(self, name, entry):
        queue = DeliveryQueue(2)
        subscription = Subscription(name, None, queue, "c1", MetricsRegistry())
        line = subscription.line(entry)
        message = _whole_message(name, entry)
        assert line == encode(message)
        assert sse_frame(line) == _whole_sse(message) == sse_event(message)
        assert json.loads(line) == json.loads(encode(message))

    def test_body_is_encoded_once_per_entry(self):
        entry = QueuedDelta(1, 1, Delta(ROWS, frozenset()))
        assert entry.body is entry.body
