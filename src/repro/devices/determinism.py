"""Deterministic pseudo-randomness for simulated devices.

Services must be deterministic at a given instant (Section 3.2): invoking
the same service with the same input at the same instant must return the
same value, whatever the invocation order.  Simulated devices therefore
derive all their "noise" from a stable hash of ``(seed, instant, ...)``
instead of a stateful RNG — re-invocation, query rewriting and repeated
benchmark runs all see identical behaviour.

A draw hashes the UTF-8 key ``str(p0) \\x1f str(p1) \\x1f ...`` once and
reads 64-bit words of its SHA-256 digest.  A device that draws every
instant from the same leading parts (its reference and a channel name)
encodes them once with :func:`stable_prefix` and passes the bytes as
``prefix=``: the value is the one the full argument tuple gives, without
re-joining the constant parts per reading.  Nothing is cached in this
module — a prefix is a few dozen bytes owned by the device object, so the
state it adds is bounded by the fleet size.
"""

from __future__ import annotations

from hashlib import sha256
from struct import Struct

__all__ = [
    "stable_prefix",
    "stable_unit",
    "stable_gauss_like",
    "stable_int",
    "stable_choice",
]


def _key(parts: tuple) -> bytes:
    return "\x1f".join(map(str, parts)).encode("utf-8")


#: ``_word(digest, offset)[0]``: eight digest bytes as a big-endian integer.
_word = Struct(">Q").unpack_from

#: ``_words(digest)``: the first three 64-bit words of a digest.
_words = Struct(">QQQ").unpack_from


def stable_prefix(*parts: object) -> bytes:
    """The key bytes of leading ``parts``, for the ``prefix=`` argument:
    ``stable_unit(c, prefix=stable_prefix(a, b)) == stable_unit(a, b, c)``.
    At least one part must follow a prefix in the draw itself."""
    return _key(parts) + b"\x1f"


def stable_unit(*parts: object, prefix: bytes = b"") -> float:
    """A deterministic float in [0, 1) derived from ``parts``."""
    return _word(sha256(prefix + _key(parts)).digest())[0] / 2**64


def stable_int(bound: int, *parts: object) -> int:
    """A deterministic integer in [0, bound) derived from ``parts``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return _word(sha256(_key(parts)).digest(), 8)[0] % bound


def stable_gauss_like(*parts: object, prefix: bytes = b"") -> float:
    """A deterministic value in [−1, 1] with a bell-ish shape (mean 0,
    variance 1/9): the mean of three uniforms, rescaled.  They are three
    words of one digest of the key behind a 0xFF tag, a byte no UTF-8 key
    holds, so the digest is never the one :func:`stable_unit` reads."""
    a, b, c = _words(sha256(b"\xff" + prefix + _key(parts)).digest())
    return (a + b + c) / (3 * 2**63) - 1.0


def stable_choice(options: list, *parts: object):
    """A deterministic element of ``options`` derived from ``parts``."""
    return options[stable_int(len(options), *parts)]
