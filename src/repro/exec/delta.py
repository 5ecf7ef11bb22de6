"""The delta contract of the physical execution layer.

Every executor reports, per evaluation instant, which tuples entered and
left its instantaneous result.  Two notions of delta coexist, and for all
but one node they coincide:

* the **change delta** — the exact difference between the node's current
  instantaneous result and its result at the previous evaluation instant.
  This is what parent executors consume to maintain their own state.

* the **reported delta** — what the logical node's
  :meth:`~repro.algebra.operators.base.Operator.inserted` /
  :meth:`~repro.algebra.operators.base.Operator.deleted` methods would
  return, which is what the window, streaming and invocation refinements
  of Section 4.2 are defined over.  A scan of a journaled XD-Relation
  reports the journal's deltas *at the evaluation instant exactly*, which
  can differ from the change delta when evaluation instants skip over
  journaled instants; every other node reports its change delta.

Keeping both notions explicit is what lets the physical engine be
differentially identical to the naive re-evaluating engine.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Delta", "EMPTY_DELTA", "coalesce_sets"]

_EMPTY: frozenset[tuple] = frozenset()

#: Most failure-message reprs list every tuple (sorted, so two engines
#: that agree produce byte-identical text and a differential failure
#: diffs cleanly); beyond this many per side the listing is truncated to
#: keep accidental reprs of bulk deltas readable.
_REPR_LIMIT = 24


def _render_side(tuples) -> str:
    ordered = sorted(tuples, key=repr)  # total even over mixed-type tuples
    shown = ", ".join(repr(t) for t in ordered[:_REPR_LIMIT])
    if len(ordered) > _REPR_LIMIT:
        shown += f", … {len(ordered) - _REPR_LIMIT} more"
    return "{" + shown + "}"


def coalesce_sets(first_inserted, first_deleted, later_inserted, later_deleted):
    """Merge two *consecutive* deltas into one ``(inserted, deleted)``
    pair with the same net effect.

    Assumes the two-delta contract on both inputs (each side internally
    disjoint, the later delta applied to the state the first produced).
    Insert-then-delete pairs cancel — a tuple inserted by the first delta
    and deleted by the later one never happened; symmetrically a tuple
    deleted then re-inserted nets to no change.
    """
    return (
        (first_inserted - later_deleted) | (later_inserted - first_deleted),
        (first_deleted - later_inserted) | (later_deleted - first_inserted),
    )


@dataclass(frozen=True)
class Delta:
    """An ``(inserted, deleted)`` pair of disjoint tuple sets."""

    inserted: frozenset[tuple] = _EMPTY
    deleted: frozenset[tuple] = _EMPTY

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    def coalesce(self, later: "Delta") -> "Delta":
        """The single delta equivalent to applying ``self`` then ``later``
        (see :func:`coalesce_sets`); the result is again contract-clean."""
        # Identity fast paths: the server's overflow coalescing folds
        # long chains where one side is often empty (carried instants).
        if not later:
            return self if self else EMPTY_DELTA
        if not self:
            return later
        inserted, deleted = coalesce_sets(
            self.inserted, self.deleted, later.inserted, later.deleted
        )
        if not inserted and not deleted:
            return EMPTY_DELTA
        return Delta(inserted, deleted)

    def __repr__(self) -> str:
        return (
            f"Delta(+{len(self.inserted)} {_render_side(self.inserted)}, "
            f"-{len(self.deleted)} {_render_side(self.deleted)})"
        )


EMPTY_DELTA = Delta()
