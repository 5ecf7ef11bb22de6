"""eXtended Dynamic relations, or XD-Relations (Section 4.1).

An XD-Relation over an extended relation schema maps each time instant to
a set of tuples over that schema.  It may be *finite* (a dynamic relation:
tuples are inserted and deleted over time, like the ``contacts`` table) or
*infinite* (a data stream: an append-only sequence, like ``temperatures``).

The implementation journals insertions and deletions per instant, which
gives three views used by the algebra:

* :meth:`instantaneous` — the relation at an instant (Section 4.2:
  "for each time instant, a finite XD-Relation is like an X-Relation");
* :meth:`inserted_at` / :meth:`deleted_at` — exact per-instant deltas,
  consumed by the invocation refinement and the streaming operator;
* :meth:`window` — the tuples inserted during the last *period* instants,
  consumed by the window operator.

Following the core model (Sections 2–3) relations are *sets*: inserting a
tuple already present at the same instant is a no-op.  Streams that may
legitimately repeat readings should carry a timestamp attribute (as the
paper's ``temperatures`` stream does in our scenarios), which is also how
CQL-style systems disambiguate physically identical events.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping

from repro.errors import SerenaError
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["XDRelation"]


class XDRelation:
    """A journaled dynamic relation or stream over an extended schema."""

    def __init__(
        self,
        schema: ExtendedRelationSchema,
        infinite: bool = False,
        initial: Iterable[tuple] = (),
    ):
        self.schema = schema
        self.infinite = infinite
        # Journal: parallel sorted list of instants and per-instant deltas.
        self._instants: list[int] = []
        self._inserted: dict[int, set[tuple]] = {}
        self._deleted: dict[int, set[tuple]] = {}
        # Running state and cache for instantaneous(): state after the last
        # journaled instant.
        self._state: set[tuple] = set()
        self._last_instant = -1
        self._revision = 0
        initial = list(initial)
        if initial:
            self.insert(initial, instant=0)

    # -- writes -----------------------------------------------------------------
    #
    # A write is one batch: the whole batch is validated against the schema
    # first (:meth:`ExtendedRelationSchema.validate_tuples`, per column),
    # then applied with set operations.  A batch that fails validation — or
    # arrives out of time order — leaves the state, the journal, ``revision``
    # and ``len()`` untouched.

    def _delta(self, instant: int) -> tuple[set[tuple], set[tuple]]:
        if instant < self._last_instant:
            raise SerenaError(
                f"XD-Relation {self.schema.name!r}: writes must be in "
                f"non-decreasing time order (got instant {instant} after "
                f"{self._last_instant})"
            )
        if instant not in self._inserted:
            bisect.insort(self._instants, instant)
            self._inserted[instant] = set()
            self._deleted[instant] = set()
        self._last_instant = instant
        return self._inserted[instant], self._deleted[instant]

    def insert(self, tuples: Iterable[tuple], instant: int) -> int:
        """Insert tuples at ``instant``; returns how many were new.

        All or nothing: an invalid tuple anywhere in the batch raises
        before any tuple is written.
        """
        tuples = self.schema.validate_tuples(tuples)
        inserted, deleted = self._delta(instant)
        new = set(tuples) - self._state
        if new:
            self._state |= new
            deleted -= new
            inserted |= new
            self._revision += 1
        return len(new)

    def insert_mappings(
        self, rows: Iterable[Mapping[str, object]], instant: int
    ) -> int:
        """Insert name→value rows (real attributes only) at ``instant``;
        all or nothing, like :meth:`insert`."""
        order = self.schema.values_from_mapping
        return self.insert([order(row) for row in rows], instant)

    def delete(self, tuples: Iterable[tuple], instant: int) -> int:
        """Delete tuples at ``instant``; returns how many were present.

        Streams are append-only (Section 4.1): deleting from an infinite
        XD-Relation is an error.  All or nothing, like :meth:`insert`.
        """
        if self.infinite:
            raise SerenaError(
                f"stream {self.schema.name!r} is append-only: deletion is "
                "not defined on infinite XD-Relations"
            )
        tuples = self.schema.validate_tuples(tuples)
        inserted, deleted = self._delta(instant)
        gone = self._state.intersection(tuples)
        if gone:
            self._state -= gone
            same_instant = gone & inserted  # inserted and deleted same instant
            inserted -= same_instant
            deleted |= gone - same_instant
            self._revision += 1
        return len(gone)

    def delete_mappings(
        self, rows: Iterable[Mapping[str, object]], instant: int
    ) -> int:
        order = self.schema.values_from_mapping
        return self.delete([order(row) for row in rows], instant)

    # -- reads ---------------------------------------------------------------------

    def instantaneous(self, instant: int) -> XRelation:
        """The X-Relation at ``instant``.

        For a finite XD-Relation: every tuple inserted and not yet deleted
        as of ``instant``.  For a stream: every tuple inserted up to
        ``instant`` (the unbounded prefix — normally consumed through a
        window instead).
        """
        if instant >= self._last_instant:
            return XRelation(self.schema, self._state, validated=True)
        # Replay the journal up to the requested instant.
        state: set[tuple] = set()
        for journaled in self._instants:
            if journaled > instant:
                break
            state |= self._inserted[journaled]
            state -= self._deleted[journaled]
        return XRelation(self.schema, state, validated=True)

    def inserted_at(self, instant: int) -> frozenset[tuple]:
        """Exact insertions at ``instant``."""
        return frozenset(self._inserted.get(instant, ()))

    def deleted_at(self, instant: int) -> frozenset[tuple]:
        """Exact deletions at ``instant``."""
        return frozenset(self._deleted.get(instant, ()))

    def window(self, instant: int, period: int) -> frozenset[tuple]:
        """Tuples inserted during ``(instant − period, instant]``."""
        tuples: set[tuple] = set()
        start = bisect.bisect_right(self._instants, instant - period)
        stop = bisect.bisect_right(self._instants, instant)
        for journaled in self._instants[start:stop]:
            tuples |= self._inserted[journaled]
        return frozenset(tuples)

    def changes_between(
        self, start: int, stop: int
    ) -> list[tuple[int, frozenset[tuple], frozenset[tuple]]]:
        """Journal entries at instants in ``[start, stop]``, in time order.

        Each entry is ``(instant, inserted, deleted)`` with snapshot copies
        of the per-instant delta sets.  This is the journaled-leaf fast
        path of the incremental execution engine
        (:mod:`repro.exec`): a scan over this relation reads the exact
        deltas between two evaluation instants instead of diffing whole
        materializations.  Entries are snapshots, so a caller may hold
        them across later writes.
        """
        lo = bisect.bisect_left(self._instants, start)
        hi = bisect.bisect_right(self._instants, stop)
        return [
            (
                journaled,
                frozenset(self._inserted[journaled]),
                frozenset(self._deleted[journaled]),
            )
            for journaled in self._instants[lo:hi]
        ]

    @property
    def last_instant(self) -> int:
        """The latest journaled instant (−1 when empty)."""
        return self._last_instant

    @property
    def revision(self) -> int:
        """Monotone write counter: bumped by every effective insert or
        delete batch.  The tick scheduler (:mod:`repro.exec.scheduler`)
        compares revisions to decide in O(1) whether a relation moved
        since a query's last evaluation."""
        return self._revision

    def __len__(self) -> int:
        """Current cardinality (total inserted count for a stream)."""
        return len(self._state)

    def __repr__(self) -> str:
        kind = "stream" if self.infinite else "dynamic relation"
        return (
            f"XDRelation({self.schema.name or '<anonymous>'}, {kind}, "
            f"{len(self._state)} tuples @ {self._last_instant})"
        )
