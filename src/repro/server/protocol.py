"""The wire protocol of the subscription server.

One JSON object per ``\\n``-terminated line, both directions (UTF-8).

The client speaks first (like HTTP — the server sniffs the first line
to tell a JSONL client from an SSE ``GET``): open with any operation,
typically ``ping``.  The server answers with its ``hello`` greeting
followed by the response to that first operation.

Client → server operations (the ``op`` key selects):

``{"op": "register", "sql": "SELECT …", "name": "hot"?}``
    Register a continuous query by Serena SQL text.  ``name`` is the
    client-chosen handle deltas are tagged with; defaults to a
    server-assigned ``q<N>``.
``{"op": "deregister", "name": "hot"}``
    Drop one subscription (the underlying query survives while other
    clients still share it).
``{"op": "ping"}`` / ``{"op": "quit"}``
    Liveness probe / orderly goodbye.

Server → client messages (the ``type`` key selects): ``hello``,
``registered``, ``deregistered``, ``delta``, ``pong``, ``bye`` and
``error``.  A ``delta`` carries the half-open work of one queue entry::

    {"type": "delta", "name": "hot", "first": 3, "last": 5,
     "inserted": [["cam2", 21.5]], "deleted": [], "coalesced": 2}

``first``/``last`` bound the instants the entry spans (equal unless the
delivery queue coalesced), rows are sorted by repr so two servers render
byte-identical streams, and ``coalesced`` counts how many merges were
folded in.  The line is spliced from three pieces — a per-subscription
:func:`delta_header`, the entry's :func:`delta_body` (encoded once and
shared by every subscriber of the query) and the ``coalesced`` tail —
byte-identical to :func:`encode` of the whole message.  Applying
``deleted`` then ``inserted`` to the client's replica yields the query's
exact result relation at instant ``last``.

The SSE shim reuses the same JSON lines: each server message becomes
one ``data:`` event on a ``text/event-stream`` response
(:func:`sse_frame`).
"""

from __future__ import annotations

import json

from repro.errors import SerenaError

__all__ = [
    "ProtocolError",
    "decode_line",
    "delta_body",
    "delta_header",
    "delta_line",
    "encode",
    "render_rows",
    "sse_event",
    "sse_frame",
    "sse_response_head",
]

#: Protect the reader loop from unbounded lines (64 KiB of SQL is ample).
MAX_LINE_BYTES = 65536


class ProtocolError(SerenaError):
    """A malformed client line or unsupported operation."""


def encode(message: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (
        json.dumps(message, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one client line into its operation object."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("expected a JSON object per line")
    if "op" not in message:
        raise ProtocolError("missing 'op' key")
    return message


def render_rows(tuples) -> list[list]:
    """Row tuples as sorted JSON arrays (deterministic wire order)."""
    return [list(row) for row in sorted(tuples, key=repr)]


def delta_header(name: str) -> bytes:
    """The per-subscription head of a ``delta`` line."""
    return b'{"type":"delta","name":' + json.dumps(name).encode("ascii") + b","


def delta_body(first: int, last: int, delta) -> bytes:
    """The subscriber-independent middle of a ``delta`` line, from
    ``"first"`` through ``"deleted"``."""
    return encode(
        {
            "first": first,
            "last": last,
            "inserted": render_rows(delta.inserted),
            "deleted": render_rows(delta.deleted),
        }
    )[1:-2]


def delta_line(header: bytes, body: bytes, coalesced: int) -> bytes:
    """One whole ``delta`` wire line."""
    return b"".join((header, body, b',"coalesced":%d}\n' % coalesced))


# -- the HTTP Server-Sent-Events shim -----------------------------------------


def sse_response_head() -> bytes:
    """The response head opening an unbounded event stream."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def sse_error_response(status: str, detail: str) -> bytes:
    body = (detail + "\n").encode("utf-8")
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("utf-8") + body


def sse_event(message: dict) -> bytes:
    """One server message as one SSE ``data:`` event."""
    return sse_frame(encode(message))


def sse_frame(line: bytes) -> bytes:
    """One encoded wire line as one SSE ``data:`` event."""
    return b"data: " + line[:-1] + b"\n\n"
