"""Incremental physical executors for the Serena algebra.

One executor class per logical operator.  An executor owns the mutable
per-node state the naive engine keeps in the evaluation context (hash
indexes, support counts, invocation caches, window buffers) plus its
current instantaneous result, and advances one evaluation instant at a
time:

* :meth:`Executor.tick` pulls the children's deltas, updates local state
  in time proportional to the *size of the deltas* (plus, for the
  invocation operator, the number of in-flight asynchronous requests),
  and publishes the node's own change and reported deltas (see
  :mod:`repro.exec.delta` for the distinction);
* :attr:`Executor.current` is the maintained instantaneous result — the
  engine materializes an X-Relation from the root's ``current`` only when
  its delta is non-empty.

State lifecycle: state is created lazily on the first tick, updated by
deltas on every subsequent tick, and lives exactly as long as the
executor.  Executors are built from a logical plan by
:mod:`repro.exec.lowering`; under a
:class:`~repro.exec.shared.SharedPlanRegistry` one executor serves every
registered query whose plan contains its subtree, and lives until the
last of them is released.

Whatever σ, π, assign, ⋈ and γ evaluate per row was compiled to a
closure when the executor was built (:mod:`repro.exec.compile`); a tick
runs each closure once over a whole delta side.  The stateful executors
then work on whole sets, not rows: W diffs and unions its per-instant
buckets, γ updates each touched group with one set operation and folds
it once, π and ⋈ tally output support in :class:`collections.Counter`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro.algebra.actions import Action
from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.scan import BaseRelation, Scan
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming, StreamType
from repro.algebra.operators.window import Window
from repro.errors import (
    FormulaError,
    InvalidOperatorError,
    SerenaError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.exec.compile import (
    compile_combiner,
    compile_filter,
    compile_gather,
    compile_key,
)
from repro.exec.delta import EMPTY_DELTA, Delta
from repro.model.relation import XRelation

__all__ = [
    "ExecStats",
    "Executor",
    "ScanExec",
    "BaseRelationExec",
    "SelectionExec",
    "ProjectionExec",
    "RenamingExec",
    "AssignmentExec",
    "JoinExec",
    "UnionExec",
    "IntersectionExec",
    "DifferenceExec",
    "AggregateExec",
    "InvocationExec",
    "StreamingInvocationExec",
    "StreamingExec",
    "WindowExec",
    "FallbackExec",
]

_EMPTY: frozenset[tuple] = frozenset()


def journal_chunks(
    ctx: EvaluationContext, stored: object, start: int, stop: int
):
    """``stored.changes_between(start, stop)``, served from the context's
    per-instant cache when an engine installed one — N executors reading
    the same XD-Relation slice then walk the journal once per tick.

    The chunk list is immutable (``(instant, frozenset, frozenset)``
    snapshots), so sharing it across executors is safe; keys carry the
    relation's identity and both bounds, so different high-water marks
    coexist."""
    cache = ctx.journal_cache
    if cache is None:
        return stored.changes_between(start, stop)  # type: ignore[attr-defined]
    key = (id(stored), start, stop)
    chunks = cache.get(key)
    if chunks is None:
        chunks = cache[key] = stored.changes_between(start, stop)  # type: ignore[attr-defined]
    return chunks


class ExecStats:
    """Cumulative per-executor counters, updated on every tick.

    Always on: each field is a plain integer bumped on the hot path (no
    registry lookups), cheap enough that EXPLAIN ANALYZE needs no arming
    step — the counts cover the executor's whole life.  ``input_*`` counts
    the delta tuples the node consumed from its children, ``output_*`` the
    change delta it published; the invocation fields are only meaningful
    on β/β∞ executors and ``rows_scanned`` on scans.
    """

    __slots__ = (
        "ticks",
        "input_inserted",
        "input_deleted",
        "output_inserted",
        "output_deleted",
        "rows_scanned",
        "invocations",
        "memo_hits",
        "fast_failures",
        "failures",
    )

    def __init__(self):
        self.ticks = 0
        self.input_inserted = 0
        self.input_deleted = 0
        self.output_inserted = 0
        self.output_deleted = 0
        self.rows_scanned = 0
        self.invocations = 0
        self.memo_hits = 0
        self.fast_failures = 0
        self.failures = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in self.__slots__
            if getattr(self, name)
        )
        return f"ExecStats({parts})"


class Executor:
    """Base class: per-instant advancement with memoization.

    Subclasses implement :meth:`_advance`, returning the ``(change,
    reported)`` delta pair for the new instant (``reported=None`` means
    "same as change", the common case).  The base class applies the
    change delta to :attr:`current` and memoizes per instant, so a node
    shared between plan branches advances exactly once per instant — the
    physical counterpart of the logical evaluation memo.
    """

    def __init__(self, node: Operator, children: Sequence["Executor"] = ()):
        self.node = node
        self.children = tuple(children)
        #: The maintained instantaneous result (tuples over node.schema).
        self.current: set[tuple] = set()
        #: Always-on cumulative counters (EXPLAIN ANALYZE reads these).
        self.stats = ExecStats()
        self._instant: int | None = None
        self._change: Delta = EMPTY_DELTA
        self._reported: Delta = EMPTY_DELTA

    # -- the tick protocol -----------------------------------------------------

    def tick(self, ctx: EvaluationContext) -> Delta:
        """Advance to ``ctx.instant``; returns the change delta."""
        if self._instant == ctx.instant:
            return self._change
        if self._instant is not None and ctx.instant < self._instant:
            raise SerenaError(
                f"executor {type(self).__name__}: evaluation instants must "
                f"be non-decreasing (got {ctx.instant} after {self._instant})"
            )
        pair = self._advance(ctx)
        change, reported = pair if isinstance(pair, tuple) else (pair, None)
        assert not (change.inserted & self.current), "insert of present tuple"
        assert change.deleted <= self.current, "delete of absent tuple"
        self.current |= change.inserted
        self.current -= change.deleted
        stats = self.stats
        stats.ticks += 1
        stats.output_inserted += len(change.inserted)
        stats.output_deleted += len(change.deleted)
        self._instant = ctx.instant
        self._change = change
        self._reported = change if reported is None else reported
        return change

    @property
    def change(self) -> Delta:
        """The change delta of the last tick."""
        return self._change

    @property
    def reported(self) -> Delta:
        """The reported delta of the last tick (Section 4.2 semantics)."""
        return self._reported

    @property
    def is_first_tick(self) -> bool:
        return self._instant is None

    @property
    def live(self) -> bool:
        """True iff this node may change its output at an instant where
        none of the query's base sources changed — time-driven semantics
        (window expiry, per-instant stream emission, in-flight or pending
        invocations).  The tick scheduler must evaluate queries containing
        a live executor at every instant."""
        return False

    def fresh_view(self) -> frozenset[tuple]:
        """The contents a *freshly registered* executor over the same
        subplan would hold at the current instant.  For state-derived
        operators that is simply :attr:`current`; stream-typed executors
        override it (their emission depends on registration time)."""
        return frozenset(self.current)

    def _pull(self, child: "Executor", ctx: EvaluationContext) -> Delta:
        """Advance ``child`` and return the delta *this* node should
        consume.  On this node's own first tick the child may already be
        warm (a shared subplan leased from the registry after other
        queries ran it): the catch-up delta is then the child's full fresh
        view as insertions, exactly what a fresh child's first tick would
        have produced.  When the child became warm in this very tick its
        change delta already *is* that view (all content as insertions,
        nothing deleted — the contract forbids first-tick deletions), so
        the O(N) ``fresh_view`` snapshot is skipped."""
        child_was_fresh = child.is_first_tick
        delta = child.tick(ctx)
        if self.is_first_tick and not child_was_fresh:
            delta = Delta(child.fresh_view(), _EMPTY)
        self.stats.input_inserted += len(delta.inserted)
        self.stats.input_deleted += len(delta.deleted)
        return delta

    def _advance(self, ctx: EvaluationContext):
        raise NotImplementedError

    def walk(self):
        """All executors of the subtree, depth-first, self first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self.node.symbol()}>"


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class ScanExec(Executor):
    """Leaf over a named relation of the environment.

    Three regimes, chosen per tick from the stored relation object:

    * **journaled** (an :class:`~repro.continuous.xdrelation.XDRelation`):
      the change delta is read from the journal between the previous and
      the current evaluation instant — exact and O(changes); the reported
      delta is the journal's delta *at* the evaluation instant, matching
      the logical Scan's Section 4.2 refinement.
    * **static** (a plain X-Relation): the delta is empty while the
      stored object is unchanged — O(1) per tick.
    * **dynamic but unjournaled** (any other object with
      ``instantaneous``): falls back to diffing consecutive
      materializations, exactly like the naive engine.
    """

    def __init__(self, node: Scan):
        super().__init__(node)
        self._stored: object | None = None
        # Journal high-water mark: entries at instants >= _consumed may
        # still change (same-instant writes) or appear; everything below
        # has been applied to `current`.
        self._consumed: int | None = None
        #: True once the stored relation was seen to be journaled; the
        #: reported delta is then registration-independent (read from the
        #: journal), which stream/window parents and the shared engine use
        #: to decide whether a warm scan needs first-tick synthesis.
        self.journaled = False

    def _advance(self, ctx: EvaluationContext):
        node = self.node
        stored = ctx.environment.relation(node.name)
        if not stored.schema.compatible(node.schema):  # type: ignore[attr-defined]
            raise InvalidOperatorError(
                f"relation {node.name!r} changed schema since the plan was built"
            )
        journaled = hasattr(stored, "changes_between") and hasattr(
            stored, "inserted_at"
        )
        self.journaled = journaled
        rebase = self.is_first_tick or stored is not self._stored
        if not rebase and isinstance(stored, XRelation):
            return EMPTY_DELTA  # static relation, same object: nothing moved
        if rebase or not journaled:
            new = ctx.environment.instantaneous(node.name, ctx.instant).tuples
            self.stats.rows_scanned += len(new)
            change = Delta(
                frozenset(new - self.current), frozenset(self.current - new)
            )
        else:
            change = self._apply_journal(ctx, stored)
        self._stored = stored
        if journaled:
            last = stored.last_instant  # type: ignore[attr-defined]
            self._consumed = last if last <= ctx.instant else ctx.instant + 1
            reported = Delta(
                stored.inserted_at(ctx.instant),  # type: ignore[attr-defined]
                stored.deleted_at(ctx.instant),  # type: ignore[attr-defined]
            )
            return change, reported
        return change

    def _apply_journal(self, ctx: EvaluationContext, stored: object) -> Delta:
        """Net membership change from the journal since the last tick.

        The journal is re-read from the consumed high-water mark, so
        late same-instant writes are picked up; application is
        idempotent against `current`, so re-read entries are harmless.

        Entries fold in with whole-set operations (C speed, no per-tuple
        Python).  That is equivalent to the per-tuple branch cascade
        because two invariants hold across chunks: ``removed`` only ever
        holds members of ``current``, and ``added`` never does — so a
        re-insert is exactly ``removed -= inserted``, and a delete either
        cancels a pending add or (disjointly) removes a current member.
        """
        added: set[tuple] = set()
        removed: set[tuple] = set()
        current = self.current
        start = self._consumed if self._consumed is not None else 0
        for _, inserted, deleted in journal_chunks(ctx, stored, start, ctx.instant):
            self.stats.rows_scanned += len(inserted) + len(deleted)
            if inserted:
                removed -= inserted
                added |= inserted - current
            if deleted:
                removed |= deleted & current
                added -= deleted
        if not added and not removed:
            return EMPTY_DELTA
        return Delta(frozenset(added), frozenset(removed))


class BaseRelationExec(Executor):
    """Leaf over a literal X-Relation: all tuples arrive on the first tick."""

    def __init__(self, node: BaseRelation):
        super().__init__(node)

    def _advance(self, ctx: EvaluationContext) -> Delta:
        if self.is_first_tick:
            return Delta(self.node.relation.tuples, _EMPTY)  # type: ignore[attr-defined]
        return EMPTY_DELTA


# ---------------------------------------------------------------------------
# Per-row operators: selection, projection, renaming, assignment
# ---------------------------------------------------------------------------


def _reconcile(
    counts: Counter, gained: Iterable[tuple], lost: Iterable[tuple]
) -> Delta:
    """Apply one tick's support gains and losses to ``counts`` and return
    the rows that appeared or disappeared.

    Gains go in first, as one ``Counter.update`` (a C tally over the
    whole list); the rows they introduce are the distinct gained rows
    that had no support before.  Losses then cost one Python step per
    *distinct* lost row.  Count arithmetic is commutative, so a row may
    lose support before regaining it within the tick, and a row that both
    appears and vanishes in the tick is reported on neither side; losing
    more support than a row has is a broken child delta and raises
    ``KeyError``."""
    inserted = set(gained) - counts.keys()
    counts.update(gained)
    deleted = []
    for row, n in Counter(lost).items():
        left = counts[row] - n
        if left > 0:
            counts[row] = left
            continue
        if left < 0:
            raise KeyError(row)
        del counts[row]
        if row in inserted:
            inserted.discard(row)
        else:
            deleted.append(row)
    if not inserted and not deleted:
        return EMPTY_DELTA
    return Delta(frozenset(inserted), frozenset(deleted))


class SelectionExec(Executor):
    """σ: one compiled filter call over the inserted side of the delta.

    If any row raises (mixed-type ordering, ``contains`` on a non-string)
    the batch is replayed through the interpreter so the canonical
    :class:`FormulaError` surfaces — paid only on the failing tick.  The
    deleted side needs no predicate: a tuple leaves iff it had passed."""

    def __init__(self, node, child: Executor):
        super().__init__(node, (child,))
        self._filter, self._slow = compile_filter(
            node.formula, node.children[0].schema
        )

    def _advance(self, ctx: EvaluationContext) -> Delta:
        delta = self._pull(self.children[0], ctx)
        if not delta:
            return EMPTY_DELTA
        try:
            kept = self._filter(delta.inserted)
        except (TypeError, FormulaError):
            slow = self._slow
            kept = [t for t in delta.inserted if slow(t)]
        gone = delta.deleted & self.current
        if not kept and not gone:
            return EMPTY_DELTA
        return Delta(frozenset(kept), gone)


class ProjectionExec(Executor):
    """π: support-counted projection — an output tuple leaves only when
    its last supporting input tuple leaves."""

    def __init__(self, node, child: Executor):
        super().__init__(node, (child,))
        source = node.children[0].schema
        kept_real = [n for n in node.schema.names if n in node.schema.real_names]
        self._gather = compile_gather(
            [source.real_position(n) for n in kept_real]
        )
        self._counts: Counter = Counter()

    def _advance(self, ctx: EvaluationContext) -> Delta:
        delta = self._pull(self.children[0], ctx)
        if not delta:
            return EMPTY_DELTA
        gather = self._gather
        return _reconcile(
            self._counts, gather(delta.inserted), gather(delta.deleted)
        )


class RenamingExec(Executor):
    """ρ: tuple layouts coincide — deltas pass through unchanged."""

    def __init__(self, node, child: Executor):
        super().__init__(node, (child,))

    def _advance(self, ctx: EvaluationContext) -> Delta:
        return self._pull(self.children[0], ctx)


class AssignmentExec(Executor):
    """α: injective per-tuple transform — deltas map through it."""

    def __init__(self, node, child: Executor):
        super().__init__(node, (child,))
        source = node.children[0].schema
        positions: list[int | None] = list(range(len(source.real_attributes)))
        target = node.schema.real_position(node.attribute)
        if node.from_attribute:
            positions.insert(target, source.real_position(node.value))
            self._transform = compile_gather(positions)
        else:
            positions.insert(target, None)
            self._transform = compile_gather(positions, node.value)

    def _advance(self, ctx: EvaluationContext) -> Delta:
        delta = self._pull(self.children[0], ctx)
        if not delta:
            return EMPTY_DELTA
        transform = self._transform
        return Delta(
            frozenset(transform(delta.inserted)),
            frozenset(transform(delta.deleted)),
        )


# ---------------------------------------------------------------------------
# Natural join: delta-aware symmetric hash join with persisted build sides
# ---------------------------------------------------------------------------


def _unindex(rows, keys, own: dict, other: dict, combine, lost: list) -> None:
    """Drop ``rows`` from the ``own`` index; every match still in
    ``other`` is an output row that lost one support."""
    for t, key in zip(rows, keys(rows)):
        bucket = own.get(key)
        if bucket is not None:
            bucket.discard(t)
            if not bucket:
                del own[key]
        matches = other.get(key)
        if matches:
            lost.extend([combine(t, m) for m in matches])


def _index(rows, keys, own: dict, other: dict, combine, gained: list) -> None:
    """Add ``rows`` to the ``own`` index; every match in ``other`` is an
    output row that gained one support."""
    for t, key in zip(rows, keys(rows)):
        bucket = own.get(key)
        if bucket is None:
            bucket = own[key] = set()
        bucket.add(t)
        matches = other.get(key)
        if matches:
            gained.extend([combine(t, m) for m in matches])


class JoinExec(Executor):
    """⋈: both operands are persisted as hash indexes on the join key;
    each tick probes only the changed tuples against the other side.

    Key values come straight from the compiled key gather (the bare
    value for a single join attribute, a tuple otherwise) and matches
    combine through the compiled output builder."""

    def __init__(self, node: NaturalJoin, left: Executor, right: Executor):
        super().__init__(node, (left, right))
        lschema = node.children[0].schema
        rschema = node.children[1].schema
        keys = node.predicate_names
        self._lkeys = compile_key([lschema.real_position(n) for n in keys])
        self._rkeys = compile_key([rschema.real_position(n) for n in keys])
        out_sources: list[tuple[bool, int]] = []
        for attribute in node.schema.real_attributes:
            if attribute.name in lschema.real_names:
                out_sources.append((True, lschema.real_position(attribute.name)))
            else:
                out_sources.append((False, rschema.real_position(attribute.name)))
        #: (left row, right row) → output row, and the same builder
        #: taking the right row first for the probes a right row drives.
        self._combine = compile_combiner(out_sources)
        self._combine_flipped = compile_combiner(
            [(not from_left, p) for from_left, p in out_sources]
        )
        self._lindex: dict[object, set[tuple]] = {}
        self._rindex: dict[object, set[tuple]] = {}
        self._counts: Counter = Counter()

    def _advance(self, ctx: EvaluationContext) -> Delta:
        left, right = self.children
        ld = self._pull(left, ctx)
        rd = self._pull(right, ctx)
        if not ld and not rd:
            return EMPTY_DELTA
        lindex, rindex = self._lindex, self._rindex
        lkeys, rkeys = self._lkeys, self._rkeys
        combine, flipped = self._combine, self._combine_flipped
        gained: list[tuple] = []
        lost: list[tuple] = []
        # Deletions first (against the other side's pre-insertion index),
        # then insertions, the right side probing a left index that
        # already holds this tick's rows: new-new pairs count exactly once.
        _unindex(ld.deleted, lkeys, lindex, rindex, combine, lost)
        _unindex(rd.deleted, rkeys, rindex, lindex, flipped, lost)
        _index(ld.inserted, lkeys, lindex, rindex, combine, gained)
        _index(rd.inserted, rkeys, rindex, lindex, flipped, gained)
        return _reconcile(self._counts, gained, lost)


# ---------------------------------------------------------------------------
# Set operators
# ---------------------------------------------------------------------------


class _SetOpExec(Executor):
    """Union/intersection/difference via membership in the children's
    maintained current sets — O(changes) per tick."""

    def __init__(self, node, left: Executor, right: Executor):
        super().__init__(node, (left, right))

    def _present(self, t: tuple) -> bool:
        raise NotImplementedError

    def _advance(self, ctx: EvaluationContext) -> Delta:
        left, right = self.children
        ld = self._pull(left, ctx)
        rd = self._pull(right, ctx)
        if not ld and not rd:
            return EMPTY_DELTA
        # Membership delta of the possibly-affected tuples against
        # `current` (cancels same-instant insert+delete).
        present, current = self._present, self.current
        inserted, deleted = [], []
        for t in set().union(ld.inserted, ld.deleted, rd.inserted, rd.deleted):
            if present(t):
                if t not in current:
                    inserted.append(t)
            elif t in current:
                deleted.append(t)
        return Delta(frozenset(inserted), frozenset(deleted))


class UnionExec(_SetOpExec):
    def _present(self, t: tuple) -> bool:
        left, right = self.children
        return t in left.current or t in right.current


class IntersectionExec(_SetOpExec):
    def _present(self, t: tuple) -> bool:
        left, right = self.children
        return t in left.current and t in right.current


class DifferenceExec(_SetOpExec):
    def _present(self, t: tuple) -> bool:
        left, right = self.children
        return t in left.current and t not in right.current


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _by_key(rows, keys) -> dict[tuple, list[tuple]]:
    """``rows`` bucketed by their compiled group key, in one pass."""
    buckets: dict[tuple, list[tuple]] = defaultdict(list)
    for t, key in zip(rows, keys(rows)):
        buckets[key].append(t)
    return buckets


class AggregateExec(Executor):
    """γ: group membership is maintained incrementally — each delta side
    is bucketed by group key and applied with one set operation per
    touched group — and only touched groups recompute their row.

    A touched group is re-folded whole, in whatever order its member set
    iterates: :meth:`AggregateSpec.compute` is a function of the group as
    a set (correctly rounded ``sum``), so no order has to be pinned."""

    # Why fold and not keep running sum/count/extremum accumulators: the
    # γ traffic is windows over streams (every benchmark window is W[1]),
    # where each tick replaces every member of every group.  Accumulators
    # would then pay 2·|group| interpreted updates per tick where the
    # fold is a single C pass — and a float sum that stays exact under
    # deletes needs Shewchuk partials maintained in Python.

    def __init__(self, node: Aggregate, child: Executor):
        super().__init__(node, (child,))
        source = node.children[0].schema
        self._keys = compile_gather([source.real_position(n) for n in node.group_by])
        self._value_positions = [
            source.real_position(spec.attribute) if spec.attribute is not None else None
            for spec in node.aggregates
        ]
        self._groups: dict[tuple, set[tuple]] = {}
        self._rows: dict[tuple, tuple] = {}

    def _row(self, key: tuple, members: set[tuple]) -> tuple:
        row = list(key)
        for spec, position in zip(self.node.aggregates, self._value_positions):
            values = members if position is None else [m[position] for m in members]
            row.append(spec.compute(values))
        return tuple(row)

    def _advance(self, ctx: EvaluationContext) -> Delta:
        delta = self._pull(self.children[0], ctx)
        if not delta:
            return EMPTY_DELTA
        groups, rows = self._groups, self._rows
        leaving = _by_key(delta.deleted, self._keys)
        joining = _by_key(delta.inserted, self._keys)
        for key, gone in leaving.items():
            members = groups.get(key)
            if members is not None:
                members.difference_update(gone)
        for key, came in joining.items():
            members = groups.get(key)
            if members is None:
                groups[key] = set(came)
            else:
                members.update(came)
        inserted, deleted = [], []
        for key in leaving.keys() | joining.keys():
            old = rows.get(key)
            members = groups.get(key)
            if members:
                new = self._row(key, members)
            else:
                new = None
                groups.pop(key, None)
            if old == new:
                continue
            if old is not None:
                deleted.append(old)
            if new is not None:
                inserted.append(new)
                rows[key] = new
            else:
                del rows[key]
        if not inserted and not deleted:
            return EMPTY_DELTA
        return Delta(frozenset(inserted), frozenset(deleted))


# ---------------------------------------------------------------------------
# Invocation (β) — the Section 4.2 refinement, delta-driven
# ---------------------------------------------------------------------------


class InvocationExec(Executor):
    """β: a binding pattern is invoked only for newly inserted operand
    tuples; results persist in a per-tuple cache until the tuple leaves.

    Per-tick cost is O(child delta + in-flight/pending tuples): tuples
    whose asynchronous response has not landed yet, and tuples whose
    synchronous invocation failed under ``on_error="skip"`` (the naive
    engine retries those every instant while they stay present — pinned
    behaviour, see tests).  Under ``on_error="degrade"`` failed tuples are
    *parked* instead: not retried while present, not counted as live, and
    re-attempted only when the tuple leaves and re-enters the operand
    (e.g. when the ERM quarantines and later re-admits the provider).
    """

    def __init__(self, node: Invocation, child: Executor):
        super().__init__(node, (child,))
        source = node.children[0].schema
        bp = node.binding_pattern
        prototype = bp.prototype
        self._service_position = source.real_position(bp.service_attribute)
        self._input_names = prototype.input_schema.names
        self._input_positions = [
            source.real_position(n) for n in self._input_names
        ]
        output_index = {n: i for i, n in enumerate(prototype.output_schema.names)}
        out_sources: list[tuple[bool, int]] = []
        for attribute in node.schema.real_attributes:
            if attribute.name in output_index:
                out_sources.append((False, output_index[attribute.name]))
            else:
                out_sources.append((True, source.real_position(attribute.name)))
        self._out_sources = out_sources
        #: operand tuple -> combined output rows (invocation succeeded).
        self._cache: dict[tuple, frozenset[tuple]] = {}
        #: present operand tuples without a cached result yet.
        self._pending: set[tuple] = set()
        #: async mode: operand tuple -> instant its response lands.
        self._due: dict[tuple, int] = {}
        #: degrade mode: failed operand tuples, not retried while present.
        self._parked: set[tuple] = set()
        #: rows invoked but not yet published (mid-tick failure recovery).
        self._unflushed: set[tuple] = set()
        #: substitution epoch this executor's cache is consistent with
        #: (see SubstitutionState.rebound_since).
        self._sub_epoch = 0

    def _rows(self, t: tuple, outputs: list[tuple]) -> frozenset[tuple]:
        return frozenset(
            tuple(t[p] if from_child else o[p] for from_child, p in self._out_sources)
            for o in outputs
        )

    @property
    def live(self) -> bool:
        # Pending tuples are retried (sync skip) and in-flight async
        # responses land at later instants — both without any new child
        # change, so the scheduler may not skip this query meanwhile.
        # Parked tuples (degrade mode) are deliberately NOT live: they
        # wake up only through a child change, which the scheduler sees.
        return bool(self._pending or self._due)

    def _advance(self, ctx: EvaluationContext) -> Delta:
        node = self.node
        delta = self._pull(self.children[0], ctx)
        if self.is_first_tick and (self._cache or self._pending):
            # A prior first-tick attempt raised mid-invocation and the
            # operand changed before the retry: the catch-up delta carries
            # no deletions, so drop vanished operand tuples explicitly.
            vanished = (
                set(self._cache) | self._pending | set(self._due) | self._parked
            ) - set(delta.inserted)
            if vanished:
                delta = Delta(delta.inserted, frozenset(vanished))
        # Rows cached by a partial advance that raised never reached
        # `current`; publish them now that this advance completes.
        inserted: set[tuple] = set(self._unflushed)
        deleted: set[tuple] = set()
        # Rebind-instant delta protocol: operand tuples whose service
        # reference was rebound (or released) since the last advance are
        # re-invoked through the new route — their old rows are deleted
        # and the fresh rows inserted within this very tick, so every
        # engine stays tuple-identical across a substitution.
        subs = ctx.environment.registry.substitutions
        if subs.epoch != self._sub_epoch:
            rebound = subs.rebound_since(
                node.binding_pattern.prototype.name, self._sub_epoch
            )
            self._sub_epoch = subs.epoch
            if rebound:
                pos = self._service_position
                for t in [t for t in self._cache if t[pos] in rebound]:
                    rows = self._cache.pop(t)
                    self._unflushed -= rows
                    inserted -= rows
                    deleted.update(r for r in rows if r in self.current)
                    self._pending.add(t)
                for t in [t for t in self._parked if t[pos] in rebound]:
                    self._parked.discard(t)
                    self._pending.add(t)
                for t in [t for t in self._due if t[pos] in rebound]:
                    del self._due[t]  # re-scheduled with the full delay
        for t in delta.deleted:
            rows = self._cache.pop(t, None)
            if rows:
                self._unflushed -= rows
                inserted -= rows
                deleted.update(r for r in rows if r in self.current)
            self._pending.discard(t)
            self._due.pop(t, None)  # in-flight request dropped with its tuple
            self._parked.discard(t)  # re-insertion will retry (degrade mode)
        # Exclude cached tuples: a partial advance that raised may be
        # re-run against the same memoized child delta.
        self._pending.update(
            t
            for t in delta.inserted
            if t not in self._cache and t not in self._parked
        )

        if self._pending:
            bp = node.binding_pattern
            registry = ctx.environment.registry
            stats = self.stats
            asynchronous = node.delay > 0 and ctx.continuous
            for t in sorted(self._pending):
                if asynchronous:
                    ready_at = self._due.setdefault(t, ctx.instant + node.delay)
                    if ctx.instant < ready_at:
                        continue  # response still in flight
                reference = t[self._service_position]
                inputs = {
                    n: t[p]
                    for n, p in zip(self._input_names, self._input_positions)
                }
                memo_before = registry.memo_hits
                try:
                    results = registry.invoke(
                        bp.prototype, reference, inputs, ctx.instant
                    )
                except ServiceError as exc:
                    stats.invocations += 1
                    if isinstance(exc, ServiceUnavailableError):
                        stats.fast_failures += 1
                    else:
                        stats.failures += 1
                    if node.on_error == "skip":
                        # Dropped request: the tuple stays pending (sync:
                        # retried next instant; async: re-scheduled with
                        # the full delay — naive-engine parity).
                        self._due.pop(t, None)
                        continue
                    if node.on_error == "degrade":
                        self._due.pop(t, None)
                        self._pending.discard(t)
                        self._parked.add(t)
                        continue
                    raise
                stats.invocations += 1
                if registry.memo_hits > memo_before:
                    stats.memo_hits += 1
                rows = self._rows(t, results)
                self._cache[t] = rows
                self._pending.discard(t)
                self._due.pop(t, None)
                self._unflushed |= rows
                if bp.active:
                    input_tuple = tuple(t[p] for p in self._input_positions)
                    ctx.record_action(Action(bp, reference, input_tuple))
                inserted |= rows
        self._unflushed.clear()
        # A rebound tuple whose substitute returns the very same rows nets
        # to no change (the overlap is only ever produced by the rebind
        # invalidation above: distinct operand tuples embed their child
        # values in every row, so they cannot collide).
        overlap = inserted & deleted
        if overlap:
            inserted -= overlap
            deleted -= overlap
        return Delta(frozenset(inserted), frozenset(deleted))


class StreamingInvocationExec(Executor):
    """β∞: by definition every operand tuple is invoked at every instant,
    so per-tick cost is O(|operand|) — the operator models services as
    per-instant data sources (Section 7)."""

    def __init__(self, node: StreamingInvocation, child: Executor):
        super().__init__(node, (child,))
        source = node.children[0].schema
        bp = node.binding_pattern
        prototype = bp.prototype
        self._service_position = source.real_position(bp.service_attribute)
        self._input_names = prototype.input_schema.names
        self._input_positions = [
            source.real_position(n) for n in self._input_names
        ]
        output_index = {n: i for i, n in enumerate(prototype.output_schema.names)}
        sources: list[tuple[str, int]] = []
        for attribute in node.schema.real_attributes:
            if attribute.name in output_index:
                sources.append(("invocation", output_index[attribute.name]))
            elif attribute.name == node.timestamp_attribute:
                sources.append(("timestamp", 0))
            else:
                sources.append(("child", source.real_position(attribute.name)))
        self._out_sources = sources

    @property
    def live(self) -> bool:
        # β∞ models services as per-instant data sources: every operand
        # tuple is re-invoked at every instant, whether or not any base
        # relation changed.
        return True

    def _advance(self, ctx: EvaluationContext):
        node = self.node
        (child,) = self.children
        child_delta = child.tick(ctx)
        stats = self.stats
        stats.input_inserted += len(child_delta.inserted)
        stats.input_deleted += len(child_delta.deleted)
        bp = node.binding_pattern
        registry = ctx.environment.registry
        emitted: set[tuple] = set()
        for t in child.current:
            reference = t[self._service_position]
            inputs = {
                n: t[p]
                for n, p in zip(self._input_names, self._input_positions)
            }
            memo_before = registry.memo_hits
            try:
                results = registry.invoke(
                    bp.prototype, reference, inputs, ctx.instant
                )
            except ServiceError as exc:
                stats.invocations += 1
                if isinstance(exc, ServiceUnavailableError):
                    stats.fast_failures += 1
                else:
                    stats.failures += 1
                if node.on_error in ("skip", "degrade"):
                    # β∞ re-invokes every tuple each instant anyway, so
                    # degrade has nothing to park: the reading is simply
                    # absent from this instant's emission (same as skip).
                    continue
                raise
            stats.invocations += 1
            if registry.memo_hits > memo_before:
                stats.memo_hits += 1
            for output in results:
                row = []
                for kind, position in self._out_sources:
                    if kind == "child":
                        row.append(t[position])
                    elif kind == "invocation":
                        row.append(output[position])
                    else:
                        row.append(ctx.instant)
                emitted.add(tuple(row))
        change = Delta(
            frozenset(emitted - self.current), frozenset(self.current - emitted)
        )
        return change, Delta(frozenset(emitted), _EMPTY)


# ---------------------------------------------------------------------------
# Continuous operators: streaming and window
# ---------------------------------------------------------------------------


class StreamingExec(Executor):
    """S[type]: re-emits the child's reported delta (or full state for
    heartbeat); every emission is an insertion of the output stream."""

    def __init__(self, node: Streaming, child: Executor):
        super().__init__(node, (child,))

    @property
    def live(self) -> bool:
        # The emission at each instant is that instant's delta: even with
        # quiescent sources the output changes (yesterday's emission must
        # drain to an empty one), so stream queries never skip a tick.
        return True

    def _journal_scan_child(self) -> bool:
        (child,) = self.children
        return isinstance(child, ScanExec) and child.journaled

    def fresh_view(self) -> frozenset[tuple]:
        # What a freshly registered S[type] would emit right now.  Over a
        # journaled scan the reported delta is registration-independent,
        # so the warm emission is already correct; over a derived operand
        # a fresh child reports its full contents as insertions.
        if self.node.kind is StreamType.HEARTBEAT or self._journal_scan_child():
            return frozenset(self.current)
        if self.node.kind is StreamType.DELETION:
            return _EMPTY
        return self.children[0].fresh_view()

    def _advance(self, ctx: EvaluationContext):
        node = self.node
        (child,) = self.children
        child_was_fresh = child.is_first_tick
        child.tick(ctx)
        self.stats.input_inserted += len(child.reported.inserted)
        self.stats.input_deleted += len(child.reported.deleted)
        synthesize = (
            self.is_first_tick
            and not child_was_fresh
            and not self._journal_scan_child()
        )
        if node.kind is StreamType.INSERTION:
            emitted = child.fresh_view() if synthesize else child.reported.inserted
        elif node.kind is StreamType.DELETION:
            emitted = _EMPTY if synthesize else child.reported.deleted
        else:  # heartbeat: all tuples present at this instant
            emitted = frozenset(child.current)
        change = Delta(
            frozenset(emitted - self.current), frozenset(self.current - emitted)
        )
        return change, Delta(emitted, _EMPTY)


class WindowExec(Executor):
    """W[period]: one bucket of inserted tuples per instant of the last
    ``period`` instants; the window is the union of the live buckets.

    Over a journaled XD-Relation scan the buckets are fed from the
    journal itself (the contents are then exact regardless of when the
    query was registered); over a derived stream the child's reported
    insertions are bucketed per evaluation instant, exactly like the
    naive engine.

    The buckets are the only state.  A tick drops the expired buckets,
    re-reads the ones that may have moved, and derives its delta from
    whole-set differences: a tuple leaves when it left a bucket and no
    live bucket still holds it, and arrives when a bucket gained it and
    the window did not hold it.  A bucket re-read unchanged costs one
    frozenset comparison."""

    def __init__(self, node: Window, child: Executor):
        super().__init__(node, (child,))
        self.period = node.period
        self._buckets: dict[int, frozenset[tuple]] = {}
        self._journal_mode: bool | None = None
        self._consumed: int | None = None

    @property
    def live(self) -> bool:
        # Window contents change by pure passage of time: a bucket expires
        # `period` instants after it was filled, with no source activity.
        return True

    def _advance(self, ctx: EvaluationContext) -> Delta:
        (child,) = self.children
        child_was_fresh = child.is_first_tick
        child.tick(ctx)
        self.stats.input_inserted += len(child.reported.inserted)
        self.stats.input_deleted += len(child.reported.deleted)
        if self._journal_mode is None:
            self._journal_mode = self._detect_journal(ctx)
        buckets = self._buckets
        horizon = ctx.instant - self.period  # keep instants > horizon
        removed = [
            buckets.pop(instant)
            for instant in [i for i in buckets if i <= horizon or i > ctx.instant]
        ]
        if self._journal_mode:
            reread = self._read_journal(ctx, horizon)
        elif self.is_first_tick and not child_was_fresh:
            # Fresh window over a warm (shared) derived operand: a fresh
            # child would have reported its full contents as this
            # instant's insertions.
            reread = [(ctx.instant, child.fresh_view())]
        else:
            reread = [(ctx.instant, child.reported.inserted)]
        # Every re-read instant lies in (horizon, now], so whatever a
        # bucket gains here is still in a live bucket when the tick ends.
        added = []
        for instant, new in reread:
            old = buckets.get(instant, _EMPTY)
            if new == old:
                continue
            added.append(new - old)
            removed.append(old - new)
            if new:
                buckets[instant] = new
            else:
                del buckets[instant]
        # `current` is the union of last tick's buckets, so every removed
        # tuple is in it; it leaves unless a live bucket still holds it.
        gone = _EMPTY.union(*removed)
        for bucket in buckets.values():
            if not gone:
                break
            gone = gone - bucket  # not in place: O(|gone|), not O(|bucket|)
        arrived = _EMPTY.union(*added) - self.current
        if not arrived and not gone:
            return EMPTY_DELTA
        return Delta(arrived, gone)

    # -- feeding ---------------------------------------------------------------

    def _detect_journal(self, ctx: EvaluationContext) -> bool:
        scan_node = self.node.children[0]
        if not isinstance(scan_node, Scan):
            return False
        stored = ctx.environment.relation(scan_node.name)
        return hasattr(stored, "changes_between") and hasattr(stored, "window")

    def _read_journal(
        self, ctx: EvaluationContext, horizon: int
    ) -> list[tuple[int, frozenset[tuple]]]:
        """The journaled insertions of every live instant that may have
        been written since it was last read (late same-instant writes
        land at instants >= ``_consumed``)."""
        scan_node = self.node.children[0]
        stored = ctx.environment.relation(scan_node.name)
        start = horizon + 1
        if self._consumed is not None:
            start = max(start, self._consumed)
        chunks = journal_chunks(ctx, stored, start, ctx.instant)
        last = stored.last_instant  # type: ignore[attr-defined]
        self._consumed = last if last <= ctx.instant else ctx.instant + 1
        return [(instant, inserted) for instant, inserted, _ in chunks]


# ---------------------------------------------------------------------------
# Fallback: naive materialization of an unlowered subtree
# ---------------------------------------------------------------------------


class FallbackExec(Executor):
    """Wraps a logical subtree the lowering pass has no incremental
    executor for: evaluates it naively each tick (using the engine's
    persistent state store) and diffs consecutive materializations.

    This makes lowering total — new logical operators run unmodified on
    the physical engine, at naive per-tick cost for that subtree —
    and is also the differential-testing bridge."""

    def __init__(self, node: Operator):
        super().__init__(node)

    @property
    def live(self) -> bool:
        # An unlowered subtree has unknown (possibly time-driven)
        # semantics: never skip its query.
        return True

    def _advance(self, ctx: EvaluationContext):
        node = self.node
        new = node.evaluate(ctx).tuples
        change = Delta(
            frozenset(new - self.current), frozenset(self.current - new)
        )
        reported = Delta(node.inserted(ctx), node.deleted(ctx))
        return change, reported
