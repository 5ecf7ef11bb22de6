"""Unit tests for the incremental executors.

Each test drives a small plan through the physical layer directly
(:func:`lower` + per-instant contexts) and checks both the maintained
result and the published deltas — including the cases where the change
delta and the reported delta differ (journaled scans at skipped
instants).
"""

import pytest

from repro.algebra import col, scan
from repro.algebra.context import EvaluationContext
from repro.algebra.query import Query
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import (
    contacts_schema,
    surveillance_schema,
    temperatures_schema,
)
from repro.errors import FormulaError, SerenaError
from repro.exec import EMPTY_DELTA, Delta, SharedEngine, lower
from repro.exec.executors import (
    Executor,
    JoinExec,
    ProjectionExec,
    SelectionExec,
    _reconcile,
)
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation


def ctx_at(env, instant):
    return EvaluationContext(env, instant, states={}, continuous=True)


def surveillance_env(rows=(), infinite=False):
    env = PervasiveEnvironment()
    stored = XDRelation(surveillance_schema(), infinite=infinite)
    if rows:
        stored.insert(rows, instant=0)
    env.add_relation(stored)
    return env, stored


ANA = ("Ana", "office", 30.0)
BO = ("Bo", "roof", 10.0)
CY = ("Cy", "office", 20.0)


class ScriptedExec(Executor):
    """A child that publishes hand-written deltas, one per instant — for
    driving a parent with rows the typed relations would refuse (mixed
    types) or deltas a well-behaved child never emits (over-deletes)."""

    def __init__(self, node, script):
        super().__init__(node)
        self._script = script

    def _advance(self, ctx):
        inserted, deleted = self._script.get(ctx.instant, ((), ()))
        return Delta(frozenset(inserted), frozenset(deleted))


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


class TestScanExec:
    def test_journal_deltas_are_exact(self):
        env, stored = surveillance_env([ANA])
        executor = lower(scan(env, "surveillance").node)
        change = executor.tick(ctx_at(env, 0))
        assert change.inserted == {ANA} and not change.deleted
        stored.insert([BO], instant=1)
        stored.delete([ANA], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change.inserted == {BO}
        assert change.deleted == {ANA}
        assert executor.current == {BO}

    def test_skipped_instants_net_the_journal(self):
        env, stored = surveillance_env([ANA])
        executor = lower(scan(env, "surveillance").node)
        executor.tick(ctx_at(env, 0))
        # Written at 1, 2, 3 — but only evaluated at 3.
        stored.insert([BO], instant=1)
        stored.delete([BO], instant=2)
        stored.insert([CY], instant=3)
        change = executor.tick(ctx_at(env, 3))
        # BO came and went between evaluations: netted away.
        assert change.inserted == {CY} and not change.deleted
        # The *reported* delta is the journal at instant 3 exactly.
        assert executor.reported.inserted == {CY}

    def test_reported_differs_from_change_on_skip(self):
        env, stored = surveillance_env([ANA])
        executor = lower(scan(env, "surveillance").node)
        executor.tick(ctx_at(env, 0))
        stored.insert([BO], instant=1)  # written at 1...
        change = executor.tick(ctx_at(env, 2))  # ...evaluated at 2
        assert change.inserted == {BO}  # change: vs previous evaluation
        assert executor.reported == EMPTY_DELTA  # reported: journal @ 2
        assert executor.current == {ANA, BO}

    def test_same_instant_late_writes_are_picked_up(self):
        env, stored = surveillance_env()
        executor = lower(scan(env, "surveillance").node)
        stored.insert([ANA], instant=1)
        assert executor.tick(ctx_at(env, 1)).inserted == {ANA}
        # A second write lands at the *same* instant after evaluation —
        # the next evaluation must still observe it.
        stored.insert([BO], instant=1)
        change = executor.tick(ctx_at(env, 2))
        assert change.inserted == {BO}
        assert executor.current == {ANA, BO}

    def test_static_relation_is_constant_delta_free(self):
        env = build_paper_example().environment
        executor = lower(scan(env, "cameras").node)
        first = executor.tick(ctx_at(env, 0))
        assert len(first.inserted) == 3
        assert executor.tick(ctx_at(env, 1)) is EMPTY_DELTA
        assert executor.tick(ctx_at(env, 2)) is EMPTY_DELTA

    def test_replaced_relation_object_rebases(self):
        env = build_paper_example().environment
        executor = lower(scan(env, "contacts").node)
        executor.tick(ctx_at(env, 0))
        before = set(executor.current)
        kept = sorted(before)[:2]
        env.add_relation(XRelation(contacts_schema(), kept))
        change = executor.tick(ctx_at(env, 1))
        assert executor.current == set(kept)
        assert change.deleted == before - set(kept)

    def test_non_decreasing_instants_enforced(self):
        env, _ = surveillance_env([ANA])
        executor = lower(scan(env, "surveillance").node)
        executor.tick(ctx_at(env, 5))
        with pytest.raises(SerenaError):
            executor.tick(ctx_at(env, 4))


# ---------------------------------------------------------------------------
# Selection / projection
# ---------------------------------------------------------------------------


class TestTupleOperators:
    def test_selection_filters_deltas(self):
        env, stored = surveillance_env([ANA, BO])
        executor = lower(
            scan(env, "surveillance").select(col("location").eq("office")).node
        )
        assert executor.tick(ctx_at(env, 0)).inserted == {ANA}
        stored.insert([CY], instant=1)
        stored.delete([BO], instant=1)  # BO never passed the filter
        change = executor.tick(ctx_at(env, 1))
        assert change.inserted == {CY} and not change.deleted

    def test_projection_support_counting(self):
        env, stored = surveillance_env([ANA, CY])  # both in "office"
        executor = lower(scan(env, "surveillance").project("location").node)
        assert executor.tick(ctx_at(env, 0)).inserted == {("office",)}
        # One supporter leaves: the projected tuple must survive.
        stored.delete([ANA], instant=1)
        assert not executor.tick(ctx_at(env, 1))
        assert executor.current == {("office",)}
        # The last supporter leaves: now it disappears.
        stored.delete([CY], instant=2)
        assert executor.tick(ctx_at(env, 2)).deleted == {("office",)}
        assert executor.current == set()

    @pytest.mark.parametrize(
        "formula, poison",
        [
            (col("threshold").gt(25.0), ("Dee", "lab", None)),
            (col("name").contains("n"), (None, "lab", 30.0)),
        ],
        ids=["mixed-type-ordering", "contains-on-non-string"],
    )
    def test_selection_replays_a_failing_batch_for_the_canonical_error(
        self, formula, poison
    ):
        env, _ = surveillance_env()
        node = scan(env, "surveillance").select(formula).node
        child = ScriptedExec(
            node.children[0], {0: ([ANA, BO], ()), 1: ([poison], ())}
        )
        executor = SelectionExec(node, child)
        assert executor.tick(ctx_at(env, 0)).inserted == {ANA}
        # The compiled batch raises a bare TypeError on the poisoned row;
        # what surfaces is the interpreter's FormulaError.
        with pytest.raises(FormulaError):
            executor.tick(ctx_at(env, 1))
        assert executor.current == {ANA}

    def test_projection_over_delete_raises(self):
        env, _ = surveillance_env()
        node = scan(env, "surveillance").project("location").node
        child = ScriptedExec(node.children[0], {0: ([ANA], ())})
        executor = ProjectionExec(node, child)
        executor.tick(ctx_at(env, 0))
        # A supporter the projection never counted leaves: broken child.
        child._script[1] = ((), [BO])
        child.current.add(BO)  # satisfy the child's own contract asserts
        with pytest.raises(KeyError):
            executor.tick(ctx_at(env, 1))


class TestReconcile:
    def test_support_may_dip_and_recover_within_a_tick(self):
        counts = {("office",): 1}
        # Lost twice, gained once more than lost: order inside the tick
        # is irrelevant, only the tally matters.
        delta = _reconcile(
            counts, [("office",), ("office",)], [("office",), ("office",)]
        )
        assert delta is EMPTY_DELTA and counts == {("office",): 1}
        assert _reconcile(counts, [("roof",)], [("roof",)]) is EMPTY_DELTA
        assert ("roof",) not in counts

    def test_rows_appear_and_disappear_once_per_distinct_row(self):
        counts = {("office",): 2}
        delta = _reconcile(
            counts, [("roof",), ("roof",)], [("office",), ("office",)]
        )
        assert delta.inserted == {("roof",)} and delta.deleted == {("office",)}
        assert counts == {("roof",): 2}

    def test_losing_more_support_than_exists_raises(self):
        with pytest.raises(KeyError):
            _reconcile({("office",): 1}, [], [("office",), ("office",)])


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


class TestJoinExec:
    def setup_env(self):
        env = PervasiveEnvironment()
        left = XDRelation(surveillance_schema())
        env.add_relation(left)
        contacts = XDRelation(contacts_schema())
        env.add_relation(contacts)
        node = (
            scan(env, "surveillance").join(scan(env, "contacts")).node
        )
        return env, left, contacts, lower(node)

    def test_delta_join_matches_recomputation(self):
        env, left, contacts, executor = self.setup_env()
        naive = Query(executor.node, "oracle")
        left.insert([ANA, BO], instant=0)
        contacts.insert_mappings(
            [
                {"name": "Ana", "address": "a@x", "messenger": "email"},
                {"name": "Cy", "address": "c@x", "messenger": "email"},
            ],
            instant=0,
        )
        for instant, writes in [
            (1, lambda: contacts.insert_mappings(
                [{"name": "Bo", "address": "b@x", "messenger": "jabber"}], 1
            )),
            (2, lambda: left.delete([ANA], 2)),
            (3, lambda: left.insert([CY], 3)),
            (4, lambda: contacts.delete_mappings(
                [{"name": "Cy", "address": "c@x", "messenger": "email"}], 4
            )),
        ]:
            writes()
            executor.tick(ctx_at(env, instant))
            expected = naive.evaluate(env, instant).relation.tuples
            assert executor.current == expected

    def test_same_tick_insert_and_delete_both_sides(self):
        env, left, contacts, executor = self.setup_env()
        left.insert([ANA], instant=0)
        contacts.insert_mappings(
            [{"name": "Ana", "address": "a@x", "messenger": "email"}], 0
        )
        executor.tick(ctx_at(env, 0))
        assert len(executor.current) == 1
        # Replace both sides in one instant.
        left.delete([ANA], instant=1)
        left.insert([("Ana", "roof", 5.0)], instant=1)
        contacts.delete_mappings(
            [{"name": "Ana", "address": "a@x", "messenger": "email"}], 1
        )
        contacts.insert_mappings(
            [{"name": "Ana", "address": "a@y", "messenger": "email"}], 1
        )
        executor.tick(ctx_at(env, 1))
        expected = Query(executor.node, "oracle").evaluate(env, 1).relation.tuples
        assert executor.current == expected

    def test_high_churn_join_keys_stay_bounded(self):
        """Fresh join keys every instant, last instant's rows deleted:
        every key is seen once, so emptied index buckets must go."""
        env, left, contacts, executor = self.setup_env()
        assert isinstance(executor, JoinExec)
        naive = Query(executor.node, "oracle")
        width = 8
        for instant in range(1, 41):
            if instant > 1:
                left.delete(
                    [(f"n{instant - 1}-{i}", "lab", 1.0) for i in range(width)],
                    instant,
                )
                contacts.delete(
                    [(f"n{instant - 1}-{i}", "a@x", "email") for i in range(width)],
                    instant,
                )
            left.insert(
                [(f"n{instant}-{i}", "lab", 1.0) for i in range(width)], instant
            )
            contacts.insert(
                [(f"n{instant}-{i}", "a@x", "email") for i in range(width)],
                instant,
            )
            executor.tick(ctx_at(env, instant))
            assert executor.current == naive.evaluate(env, instant).relation.tuples
            assert len(executor._lindex) == len(executor._rindex) == width
            assert len(executor._counts) == width


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------


class TestWindowExec:
    def readings(self, instant):
        return [("s1", "office", 20.0 + instant, instant)]

    def test_journal_window_slides(self):
        env = PervasiveEnvironment()
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        executor = lower(scan(env, "temperatures").window(2).node)
        for instant in range(1, 7):
            stream.insert(self.readings(instant), instant=instant)
            executor.tick(ctx_at(env, instant))
            expected = stream.window(instant, 2)
            assert executor.current == expected
        # Two instants after the last insertion the window must be empty.
        executor.tick(ctx_at(env, 8))
        assert executor.current == set()

    def test_window_over_derived_stream_buffers(self):
        """W over S (not a scan): buffered per evaluation instant."""
        env, stored = surveillance_env([ANA])
        node = (
            scan(env, "surveillance").stream("insertion").window(2).node
        )
        executor = lower(node)
        states = {}

        def tick(instant):
            executor.tick(EvaluationContext(env, instant, states, True))

        tick(0)
        assert executor.current == {ANA}  # inserted at 0, window [−1, 0]
        stored.insert([BO], instant=1)
        tick(1)
        assert executor.current == {ANA, BO}
        tick(2)
        assert executor.current == {BO}  # ANA's insertion slid out
        tick(3)
        assert executor.current == set()


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------


class TestInvocationExec:
    def build(self, env):
        node = (
            scan(env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .node
        )
        return lower(node)

    def test_invokes_only_new_tuples(self):
        paper = build_paper_example()
        env = paper.environment
        contacts = XDRelation(contacts_schema())
        contacts.insert_mappings(
            [{"name": "Ana", "address": "a@x", "messenger": "email"}], 0
        )
        env.add_relation(contacts)
        executor = self.build(env)
        registry = env.registry
        executor.tick(ctx_at(env, 0))
        after_first = registry.invocation_count
        assert after_first == 1
        # Steady state: no new tuples, no new invocations.
        executor.tick(ctx_at(env, 1))
        executor.tick(ctx_at(env, 2))
        assert registry.invocation_count == after_first
        # A new tuple triggers exactly one more invocation.
        contacts.insert_mappings(
            [{"name": "Bo", "address": "b@x", "messenger": "email"}], 3
        )
        executor.tick(ctx_at(env, 3))
        assert registry.invocation_count == after_first + 1
        assert len(executor.current) == 2

    def test_departed_tuple_reinvoked_on_return(self):
        paper = build_paper_example()
        env = paper.environment
        contacts = XDRelation(contacts_schema())
        row = {"name": "Ana", "address": "a@x", "messenger": "email"}
        contacts.insert_mappings([row], 0)
        env.add_relation(contacts)
        executor = self.build(env)
        executor.tick(ctx_at(env, 0))
        contacts.delete_mappings([row], 1)
        executor.tick(ctx_at(env, 1))
        assert executor.current == set()
        before = env.registry.invocation_count
        contacts.insert_mappings([row], 2)
        executor.tick(ctx_at(env, 2))
        # Reappearing counts as newly inserted (Section 4.2): re-invoked.
        assert env.registry.invocation_count == before + 1
        assert len(executor.current) == 1


# ---------------------------------------------------------------------------
# Engine materialization
# ---------------------------------------------------------------------------


class TestIncrementalEngine:
    """The driver of the incremental executors: a
    :class:`~repro.exec.shared.SharedEngine` on its private registry."""

    def test_unchanged_ticks_reuse_the_relation(self):
        env, stored = surveillance_env([ANA])
        engine = SharedEngine(Query(scan(env, "surveillance").node, "q"), env)
        r1 = engine.tick(0)
        r2 = engine.tick(1)
        assert r1.relation is r2.relation
        stored.insert([BO], instant=2)
        r3 = engine.tick(2)
        assert r3.relation is not r2.relation
        assert set(r3.relation.tuples) == {ANA, BO}
        # Re-ticking the current instant is idempotent (executors memoize).
        assert engine.tick(2).relation.tuples == r3.relation.tuples
        assert engine.change.inserted == frozenset({BO})

    def test_results_match_naive_query(self):
        env, stored = surveillance_env([ANA, BO])
        query = (
            scan(env, "surveillance")
            .select(col("threshold").ge(20.0))
            .project("name", "location")
            .query("q")
        )
        engine = SharedEngine(query, env)
        for instant in range(6):
            if instant == 2:
                stored.insert([CY], instant=2)
            if instant == 4:
                stored.delete([ANA], instant=4)
            got = engine.tick(instant).relation.tuples
            want = query.evaluate(env, instant).relation.tuples
            assert got == want, f"instant {instant}"
