"""Discrete time for pervasive environments (Sections 3.2 and 4.1).

The paper assumes a discrete and ordered time domain ``T`` of instants; a
query evaluation occurs at a given instant, and continuous queries are
re-evaluated at every instant.  :class:`VirtualClock` realizes this domain:
instants are non-negative integers, advanced explicitly by the test or
benchmark harness, which makes every run deterministic and as fast as the
CPU allows (the substitution for wall-clock time documented in DESIGN.md).
What happens at an instant is written down in one place,
:meth:`repro.pems.pems.PEMS.tick`.
"""

from __future__ import annotations

from repro.errors import SerenaError

__all__ = ["VirtualClock"]


class VirtualClock:
    """A discrete, monotonically advancing clock."""

    def __init__(self, start: int = 0):
        if start < 0:
            raise SerenaError("clock cannot start before instant 0")
        self._now = start

    @property
    def now(self) -> int:
        """The current instant τ."""
        return self._now

    def tick(self) -> int:
        """Advance time by one instant; returns the new instant."""
        self._now += 1
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now})"
