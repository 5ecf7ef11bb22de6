"""Unit tests for the incremental executors.

Each test drives a small plan through the physical layer directly (the
executors a private registry acquires, ticked with per-instant contexts)
and checks both the maintained result and the published deltas — including the cases where the change
delta and the reported delta differ (journaled scans at skipped
instants).
"""

from collections import Counter

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
from repro.exec import EMPTY_DELTA, Delta, SharedEngine, SharedPlanRegistry
from repro.exec.executors import (
    AggregateExec,
    Executor,
    JoinExec,
    ProjectionExec,
    SelectionExec,
    _reconcile,
)
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation


def physical(env, node):
    """The executor tree the engine runs for ``node``."""
    return SharedPlanRegistry(env).acquire(node).root


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
        executor = physical(env, scan(env, "surveillance").node)
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
        executor = physical(env, scan(env, "surveillance").node)
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
        executor = physical(env, scan(env, "surveillance").node)
        executor.tick(ctx_at(env, 0))
        stored.insert([BO], instant=1)  # written at 1...
        change = executor.tick(ctx_at(env, 2))  # ...evaluated at 2
        assert change.inserted == {BO}  # change: vs previous evaluation
        assert executor.reported == EMPTY_DELTA  # reported: journal @ 2
        assert executor.current == {ANA, BO}

    def test_same_instant_late_writes_are_picked_up(self):
        env, stored = surveillance_env()
        executor = physical(env, scan(env, "surveillance").node)
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
        executor = physical(env, scan(env, "cameras").node)
        first = executor.tick(ctx_at(env, 0))
        assert len(first.inserted) == 3
        assert executor.tick(ctx_at(env, 1)) is EMPTY_DELTA
        assert executor.tick(ctx_at(env, 2)) is EMPTY_DELTA

    def test_replaced_relation_object_rebases(self):
        env = build_paper_example().environment
        executor = physical(env, scan(env, "contacts").node)
        executor.tick(ctx_at(env, 0))
        before = set(executor.current)
        kept = sorted(before)[:2]
        env.add_relation(XRelation(contacts_schema(), kept))
        change = executor.tick(ctx_at(env, 1))
        assert executor.current == set(kept)
        assert change.deleted == before - set(kept)

    def test_non_decreasing_instants_enforced(self):
        env, _ = surveillance_env([ANA])
        executor = physical(env, scan(env, "surveillance").node)
        executor.tick(ctx_at(env, 5))
        with pytest.raises(SerenaError):
            executor.tick(ctx_at(env, 4))


# ---------------------------------------------------------------------------
# Selection / projection
# ---------------------------------------------------------------------------


class TestTupleOperators:
    def test_selection_filters_deltas(self):
        env, stored = surveillance_env([ANA, BO])
        executor = physical(
            env,
            scan(env, "surveillance").select(col("location").eq("office")).node
        )
        assert executor.tick(ctx_at(env, 0)).inserted == {ANA}
        stored.insert([CY], instant=1)
        stored.delete([BO], instant=1)  # BO never passed the filter
        change = executor.tick(ctx_at(env, 1))
        assert change.inserted == {CY} and not change.deleted

    def test_projection_support_counting(self):
        env, stored = surveillance_env([ANA, CY])  # both in "office"
        executor = physical(env, scan(env, "surveillance").project("location").node)
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
        counts = Counter({("office",): 1})
        # Lost twice, gained once more than lost: order inside the tick
        # is irrelevant, only the tally matters.
        delta = _reconcile(
            counts, [("office",), ("office",)], [("office",), ("office",)]
        )
        assert delta is EMPTY_DELTA and counts == {("office",): 1}
        assert _reconcile(counts, [("roof",)], [("roof",)]) is EMPTY_DELTA
        assert ("roof",) not in counts

    def test_rows_appear_and_disappear_once_per_distinct_row(self):
        counts = Counter({("office",): 2})
        delta = _reconcile(
            counts, [("roof",), ("roof",)], [("office",), ("office",)]
        )
        assert delta.inserted == {("roof",)} and delta.deleted == {("office",)}
        assert counts == {("roof",): 2}

    def test_losing_more_support_than_exists_raises(self):
        with pytest.raises(KeyError):
            _reconcile(Counter({("office",): 1}), [], [("office",), ("office",)])

    def test_row_gained_and_lost_in_one_tick_is_on_neither_side(self):
        counts = Counter()
        delta = _reconcile(counts, [("roof",), ("lab",)], [("roof",)])
        assert delta.inserted == {("lab",)} and not delta.deleted
        assert counts == {("lab",): 1}

    def test_multiplicities_above_one_on_both_sides(self):
        counts = Counter({("office",): 3, ("lab",): 2})
        delta = _reconcile(
            counts,
            [("office",)] * 2 + [("roof",)] * 2 + [("lab",)],
            [("office",)] * 5 + [("lab",)] * 2,
        )
        assert delta.inserted == {("roof",)} and delta.deleted == {("office",)}
        assert counts == {("roof",): 2, ("lab",): 1}

    @pytest.mark.parametrize(
        "gained, lost",
        [
            ([("office",)], [("office",)] * 3),  # more than held plus gained
            ([], [("ghost",)]),  # a row that never had support
        ],
    )
    def test_over_delete_leaves_a_key_error(self, gained, lost):
        with pytest.raises(KeyError):
            _reconcile(Counter({("office",): 1}), gained, lost)


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
        return env, left, contacts, physical(env, node)

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
# Aggregate
# ---------------------------------------------------------------------------


class TestAggregateExec:
    DEE = ("Dee", "office", 5.0)

    def build(self, env, group_by, *aggregates):
        executor = physical(
            env,
            scan(env, "surveillance").aggregate(group_by, *aggregates).node
        )
        assert isinstance(executor, AggregateExec)
        return executor

    def test_group_appears_and_vanishes(self):
        env, stored = surveillance_env([ANA])
        executor = self.build(env, ["location"], ("sum", "threshold", "total"))
        assert executor.tick(ctx_at(env, 0)).inserted == {("office", 30.0)}
        stored.insert([BO], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change.inserted == {("roof", 10.0)} and not change.deleted
        stored.delete([BO], instant=2)
        change = executor.tick(ctx_at(env, 2))
        assert change.deleted == {("roof", 10.0)} and not change.inserted
        assert executor.current == {("office", 30.0)}
        # The emptied group leaves no state behind.
        assert set(executor._groups) == set(executor._rows) == {("office",)}

    def test_one_member_of_many_deleted(self):
        env, stored = surveillance_env([ANA, CY, self.DEE, BO])
        executor = self.build(
            env, ["location"], ("sum", "threshold", "total"), ("avg", "threshold", "mean")
        )
        executor.tick(ctx_at(env, 0))
        assert executor.current == {("office", 55.0, 55.0 / 3), ("roof", 10.0, 10.0)}
        stored.delete([CY], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change.deleted == {("office", 55.0, 55.0 / 3)}
        assert change.inserted == {("office", 35.0, 17.5)}

    def test_deleted_extremum_is_rederived(self):
        env, stored = surveillance_env([ANA, CY, self.DEE])
        executor = self.build(
            env, ["location"], ("min", "threshold", "low"), ("max", "threshold", "high")
        )
        executor.tick(ctx_at(env, 0))
        assert executor.current == {("office", 5.0, 30.0)}
        stored.delete([ANA], instant=1)  # the maximum leaves
        executor.tick(ctx_at(env, 1))
        assert executor.current == {("office", 5.0, 20.0)}
        stored.delete([self.DEE], instant=2)  # then the minimum
        executor.tick(ctx_at(env, 2))
        assert executor.current == {("office", 20.0, 20.0)}

    def test_count_star_needs_no_attribute(self):
        env, stored = surveillance_env([ANA, CY, BO])
        executor = self.build(env, ["location"], ("count", None, "n"))
        executor.tick(ctx_at(env, 0))
        assert executor.current == {("office", 2), ("roof", 1)}
        stored.insert([self.DEE], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change == Delta(frozenset({("office", 3)}), frozenset({("office", 2)}))

    def test_empty_group_by_is_one_global_group(self):
        env, stored = surveillance_env([ANA, BO])
        executor = self.build(
            env, [], ("count", None, "n"), ("max", "threshold", "high")
        )
        assert executor.tick(ctx_at(env, 0)).inserted == {(2, 30.0)}
        stored.delete([ANA, BO], instant=1)
        # No global row over an empty operand (the logical operator's rule).
        assert executor.tick(ctx_at(env, 1)).deleted == {(2, 30.0)}
        assert executor.current == set() and not executor._groups

    def test_group_emptied_and_refilled_within_one_tick(self):
        env, stored = surveillance_env([ANA, BO])
        executor = self.build(env, ["location"], ("sum", "threshold", "total"))
        executor.tick(ctx_at(env, 0))
        stored.delete([ANA], instant=1)
        stored.insert([self.DEE], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change == Delta(
            frozenset({("office", 5.0)}), frozenset({("office", 30.0)})
        )
        assert executor._groups[("office",)] == {self.DEE}

    def test_unchanged_aggregate_row_is_the_empty_delta(self):
        env, stored = surveillance_env([ANA])
        executor = self.build(env, ["location"], ("max", "threshold", "high"))
        executor.tick(ctx_at(env, 0))
        stored.insert([CY], instant=1)  # 20.0 does not move the maximum
        assert executor.tick(ctx_at(env, 1)) is EMPTY_DELTA
        # ...and a full member swap that keeps the row does not either.
        stored.delete([ANA, CY], instant=2)
        stored.insert([("Eve", "office", 30.0)], instant=2)
        assert executor.tick(ctx_at(env, 2)) is EMPTY_DELTA
        assert executor.current == {("office", 30.0)}

    def test_first_tick_over_a_warm_shared_child(self):
        env, stored = surveillance_env([ANA, BO])
        node = (
            scan(env, "surveillance")
            .aggregate(["location"], ("count", None, "n"))
            .node
        )
        child = physical(env, node.children[0])
        child.tick(ctx_at(env, 0))  # another query already ran the scan
        stored.insert([CY], instant=1)
        child.tick(ctx_at(env, 1))
        executor = AggregateExec(node, child)
        stored.delete([BO], instant=2)
        # The child's delta at 2 is just -BO; the late parent must still
        # see everything the child holds.
        change = executor.tick(ctx_at(env, 2))
        assert change.inserted == {("office", 2)} and not change.deleted
        stored.insert([BO], instant=3)
        assert executor.tick(ctx_at(env, 3)).inserted == {("roof", 1)}


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
        executor = physical(env, scan(env, "temperatures").window(2).node)
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
        executor = physical(env, node)
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

    def test_tuple_in_two_buckets_stays_until_the_second_expires(self):
        """ANA is emitted at 1 and again at 3: inside W[3] two buckets
        hold it, and the first one expiring must not take it out."""
        env, stored = surveillance_env()
        executor = physical(
            env,
            scan(env, "surveillance").stream("insertion").window(3).node
        )
        script = {1: ([ANA], ()), 2: ((), [ANA]), 3: ([ANA], ())}
        seen = {}
        for instant in range(1, 8):
            inserted, deleted = script.get(instant, ((), ()))
            stored.insert(inserted, instant=instant)
            stored.delete(deleted, instant=instant)
            change = executor.tick(ctx_at(env, instant))
            seen[instant] = (set(executor.current), change)
        assert all(seen[i][0] == {ANA} for i in range(1, 6))
        # Bucket 1 expired at 4 without a delta: bucket 3 still held ANA.
        assert seen[4][1] is EMPTY_DELTA
        assert seen[6] == (set(), Delta(frozenset(), frozenset({ANA})))
        assert not executor._buckets

    def test_late_same_instant_write_is_reread_from_the_journal(self):
        env = PervasiveEnvironment()
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        executor = physical(env, scan(env, "temperatures").window(2).node)
        early, late = ("s1", "office", 20.0, 1), ("s2", "roof", 9.0, 1)
        stream.insert([early], instant=1)
        assert executor.tick(ctx_at(env, 1)).inserted == {early}
        stream.insert([late], instant=1)  # lands after the evaluation of 1
        change = executor.tick(ctx_at(env, 2))
        assert change == Delta(frozenset({late}), frozenset())
        assert executor.current == {early, late}
        # Both sit in bucket 1 and expire together; nothing is re-read.
        assert executor.tick(ctx_at(env, 3)).deleted == {early, late}

    def test_bucket_reread_with_fewer_rows(self):
        class CorrectableStream(XDRelation):
            """A journal whose last instant can lose a row again."""

            def retract(self, row, instant):
                self._inserted[instant].discard(row)
                self._state.discard(row)

        env = PervasiveEnvironment()
        stream = CorrectableStream(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        executor = physical(env, scan(env, "temperatures").window(2).node)
        kept, wrong = ("s1", "office", 20.0, 1), ("s2", "roof", 99.0, 1)
        stream.insert([kept, wrong], instant=1)
        executor.tick(ctx_at(env, 1))
        stream.retract(wrong, 1)
        stream.insert([("s2", "roof", 9.0, 1)], instant=1)
        change = executor.tick(ctx_at(env, 2))
        assert change.deleted == {wrong}
        assert change.inserted == {("s2", "roof", 9.0, 1)}
        assert executor.current == stream.window(2, 2)

    def test_w1_full_turnover_reports_new_minus_old(self):
        """W[1] over a heartbeat: each instant's bucket replaces the
        last one, and only the difference is published."""
        env, stored = surveillance_env([ANA, BO])
        executor = physical(
            env,
            scan(env, "surveillance").stream("heartbeat").window(1).node
        )
        assert executor.tick(ctx_at(env, 0)).inserted == {ANA, BO}
        stored.delete([BO], instant=1)
        stored.insert([CY], instant=1)
        change = executor.tick(ctx_at(env, 1))
        assert change == Delta(frozenset({CY}), frozenset({BO}))
        assert executor.tick(ctx_at(env, 2)) is EMPTY_DELTA
        assert executor._buckets == {2: frozenset({ANA, CY})}


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
        return physical(env, node)

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
