"""The federated XD-Relation: one logical relation over per-zone shards.

A :class:`FederatedRelation` presents the union of per-zone
:class:`~repro.continuous.xdrelation.XDRelation` partitions behind the
full XD-Relation read/write API, so every existing consumer — scans,
windows, the tick scheduler's revision tokens, the shared registry's
shareability checks — works over a partitioned relation unchanged:

* **writes** route each tuple to its owning zone by consistent hashing
  on the partition attribute (deletes route identically, since routing
  is a pure function of the tuple);
* **reads** merge the partition journals: partitions are tuple-disjoint
  by construction, so per-instant deltas union exactly and the merged
  journal is what a single XD-Relation receiving the same writes would
  hold;
* ``revision`` is the sum of partition revisions — monotone, and it
  moves exactly when some partition moved, which is all the scheduler
  needs for its O(1) quiescence check.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.continuous.xdrelation import XDRelation
from repro.errors import SerenaError
from repro.fed.hashing import HashRing, stable_token
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["FederatedRelation"]


class FederatedRelation:
    """A journaled relation whose extent lives in per-zone partitions."""

    def __init__(
        self,
        schema: ExtendedRelationSchema,
        partitions: Mapping[str, XDRelation],
        ring: HashRing,
        partition_position: int | None,
        infinite: bool = False,
    ):
        self.schema = schema
        self.infinite = infinite
        #: Zone name → the zone's partition (tuple-disjoint by routing).
        self.partitions = dict(partitions)
        self._ring = ring
        #: Index of the partition attribute in the real-attribute tuple,
        #: or None — rows then route by a hash of the whole tuple.
        self._position = partition_position

    # -- routing ------------------------------------------------------------------

    @property
    def partition_attribute(self) -> str | None:
        """The real attribute rows are partitioned on (None: whole-tuple
        hashing, which rules out partition pruning but not correctness)."""
        if self._position is None:
            return None
        return self.schema.real_attributes[self._position].name

    def zone_of(self, values: tuple) -> str:
        """The zone owning a (validated) tuple."""
        if self._position is not None:
            return self._ring.zone_for(values[self._position])
        return self._ring.zone_for(stable_token(values))

    def zone_for_value(self, value: object) -> str | None:
        """The zone owning rows whose partition attribute equals
        ``value`` — the partition-pruning hook; None when this relation
        routes by whole-tuple hash (no single-attribute pruning)."""
        if self._position is None:
            return None
        return self._ring.zone_for(value)

    def _scatter(
        self, tuples: Iterable[tuple], instant: int
    ) -> list[tuple[XDRelation, list[tuple]]]:
        """Validate the batch once, against the facade's schema, and
        group it by owning partition (zones in sorted order).  Every
        target partition is checked for time order before the caller
        writes to any, so a refused batch leaves all partitions untouched.
        """
        groups: dict[str, list[tuple]] = {}
        for values in self.schema.validate_tuples(tuples):
            groups.setdefault(self.zone_of(values), []).append(values)
        targets = [(self.partitions[zone], groups[zone]) for zone in sorted(groups)]
        for partition, _ in targets:
            partition.check_order(instant)
        return targets

    # -- writes (scatter) ---------------------------------------------------------
    #
    # All or nothing, like the XD-Relation writes they fan out to: the
    # partitions share the facade's schema, so they take the validated
    # groups as they are — each value is coerced exactly once.

    def insert(self, tuples: Iterable[tuple], instant: int) -> int:
        return sum(
            partition.insert_validated(group, instant)
            for partition, group in self._scatter(tuples, instant)
        )

    def insert_mappings(
        self, rows: Iterable[Mapping[str, object]], instant: int
    ) -> int:
        order = self.schema.values_from_mapping
        return self.insert([order(row) for row in rows], instant)

    def delete(self, tuples: Iterable[tuple], instant: int) -> int:
        if self.infinite:
            raise SerenaError(
                f"stream {self.schema.name!r} is append-only: deletion is "
                "not defined on infinite XD-Relations"
            )
        return sum(
            partition.delete_validated(group, instant)
            for partition, group in self._scatter(tuples, instant)
        )

    def delete_mappings(
        self, rows: Iterable[Mapping[str, object]], instant: int
    ) -> int:
        order = self.schema.values_from_mapping
        return self.delete([order(row) for row in rows], instant)

    # -- reads (gather) ------------------------------------------------------------

    def instantaneous(self, instant: int) -> XRelation:
        tuples: set[tuple] = set()
        for partition in self.partitions.values():
            tuples |= partition.instantaneous(instant).tuples
        return XRelation(self.schema, tuples, validated=True)

    def inserted_at(self, instant: int) -> frozenset[tuple]:
        out: set[tuple] = set()
        for partition in self.partitions.values():
            out |= partition.inserted_at(instant)
        return frozenset(out)

    def deleted_at(self, instant: int) -> frozenset[tuple]:
        out: set[tuple] = set()
        for partition in self.partitions.values():
            out |= partition.deleted_at(instant)
        return frozenset(out)

    def window(self, instant: int, period: int) -> frozenset[tuple]:
        out: set[tuple] = set()
        for partition in self.partitions.values():
            out |= partition.window(instant, period)
        return frozenset(out)

    def changes_between(
        self, start: int, stop: int
    ) -> list[tuple[int, frozenset[tuple], frozenset[tuple]]]:
        """The merged journal slice: per-instant unions of the partition
        deltas, in time order.  Disjoint partitions cannot insert and
        delete the same tuple at one instant, so no cancellation is
        needed beyond what each partition already journaled."""
        merged: dict[int, tuple[set[tuple], set[tuple]]] = {}
        for partition in self.partitions.values():
            for instant, inserted, deleted in partition.changes_between(
                start, stop
            ):
                ins, dels = merged.setdefault(instant, (set(), set()))
                ins |= inserted
                dels |= deleted
        return [
            (instant, frozenset(ins), frozenset(dels))
            for instant, (ins, dels) in sorted(merged.items())
        ]

    @property
    def last_instant(self) -> int:
        return max(
            (p.last_instant for p in self.partitions.values()), default=-1
        )

    @property
    def revision(self) -> int:
        return sum(p.revision for p in self.partitions.values())

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions.values())

    def __repr__(self) -> str:
        kind = "stream" if self.infinite else "dynamic relation"
        return (
            f"FederatedRelation({self.schema.name or '<anonymous>'}, {kind}, "
            f"{len(self)} tuples over {len(self.partitions)} zones)"
        )
