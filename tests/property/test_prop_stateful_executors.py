"""Property-based tests on the stateful executors (W, γ, π/⋈ support).

Generated per-instant scripts drive ``W[period]`` under ``γ``, ``π`` and
``⋈`` on the shared engine next to the oracle, over values chosen to make
a float sum depend on accumulation order (non-exactly-summable decimals
next to ±1e16) and with tuples that come back at later instants;
``_reconcile`` is checked against a plain dict-of-counts model, on random
losses and on losses that take away the whole support.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import surveillance_schema, temperatures_schema
from repro.exec.executors import _reconcile
from repro.model.environment import PervasiveEnvironment

VALUES = [0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 0.25, 3.0, 1e16, -1e16]

periods = st.integers(min_value=1, max_value=4)


def aggregate_lists(attribute):
    """1–3 distinct aggregate columns over ``attribute`` (or ``*``)."""
    columns = st.sampled_from(
        [
            ("sum", attribute),
            ("avg", attribute),
            ("min", attribute),
            ("max", attribute),
            ("count", None),
        ]
    )
    return st.lists(columns, min_size=1, max_size=3, unique=True).map(
        lambda chosen: [
            (function, over, f"a{i}") for i, (function, over) in enumerate(chosen)
        ]
    )


# Stream scripts: per instant, readings (sensor, location, value, at).  ``at``
# comes from a small pool, not the clock, so a tuple can be written again
# at a later instant.
stream_scripts = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["s0", "s1", "s2"]),
            st.sampled_from(["office", "roof"]),
            st.sampled_from(VALUES),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=5,
    ),
    min_size=1,
    max_size=8,
)

stream_groupings = st.sampled_from([[], ["location"], ["sensor", "location"]])

# π keeps several supporters per output row when it drops ``at``/``sensor``.
stream_projections = st.sampled_from(
    [["location"], ["sensor"], ["sensor", "location"], ["location", "temperature"]]
)

# Finite-relation scripts: per instant, rows to insert and rows to delete
# from a pool small enough that deletes hit and rows come back.
rows = st.tuples(
    st.sampled_from(["Ana", "Bo", "Cy"]),
    st.sampled_from(["office", "roof"]),
    st.sampled_from(VALUES[:4] + VALUES[-2:]),
)
table_scripts = st.lists(
    st.tuples(st.lists(rows, max_size=4), st.lists(rows, max_size=4)),
    min_size=1,
    max_size=8,
)

table_groupings = st.sampled_from([[], ["location"], ["name"]])


def environment_with(relation):
    env = PervasiveEnvironment()
    env.add_relation(relation)
    return env


class TestSharedEngineEqualsTheOracle:
    @given(stream_scripts, periods, stream_groupings, aggregate_lists("temperature"))
    @settings(max_examples=80, deadline=None)
    def test_aggregate_over_a_journal_window(self, script, period, by, aggregates):
        stream = XDRelation(temperatures_schema(), infinite=True)
        env = environment_with(stream)
        query = (
            scan(env, "temperatures").window(period).aggregate(by, *aggregates).query()
        )
        continuous = ContinuousQuery(query, env, engine="shared")
        # Quiet instants at the end let every bucket expire.
        for instant, readings in enumerate(script + [[], [], [], []], start=1):
            stream.insert(readings, instant=instant)
            live = continuous.evaluate_at(instant).relation.tuples
            assert live == query.evaluate(env, instant).relation.tuples

    @given(stream_scripts, periods, stream_projections)
    @settings(max_examples=80, deadline=None)
    def test_projection_over_a_journal_window(self, script, period, names):
        """On W[1] every instant takes away π's whole support (the rebuild
        branch of ``_reconcile``); on W[n>1] rows outlive an instant."""
        stream = XDRelation(temperatures_schema(), infinite=True)
        env = environment_with(stream)
        query = scan(env, "temperatures").window(period).project(*names).query()
        continuous = ContinuousQuery(query, env, engine="shared")
        for instant, readings in enumerate(script + [[], [], [], []], start=1):
            stream.insert(readings, instant=instant)
            live = continuous.evaluate_at(instant).relation.tuples
            assert live == query.evaluate(env, instant).relation.tuples

    @given(stream_scripts, periods, table_scripts)
    @settings(max_examples=80, deadline=None)
    def test_join_of_a_journal_window_with_a_relation(self, script, period, edits):
        """W[period] ⋈ a finite relation that changes too: a tick loses
        the join's whole support only when the window empties or turns
        over and the relation keeps its matching rows."""
        stream = XDRelation(temperatures_schema(), infinite=True)
        stored = XDRelation(surveillance_schema())
        env = environment_with(stream)
        env.add_relation(stored)
        query = (
            scan(env, "temperatures").window(period).join(scan(env, "surveillance"))
        ).query()
        continuous = ContinuousQuery(query, env, engine="shared")
        # zip stops after the stream script and its four quiet instants.
        for instant, (readings, (inserted, deleted)) in enumerate(
            zip(script + [[], [], [], []], edits + [([], [])] * 12), start=1
        ):
            stream.insert(readings, instant=instant)
            stored.insert(inserted, instant=instant)
            stored.delete(deleted, instant=instant)
            live = continuous.evaluate_at(instant).relation.tuples
            assert live == query.evaluate(env, instant).relation.tuples

    @given(table_scripts, table_groupings, aggregate_lists("threshold"))
    @settings(max_examples=80, deadline=None)
    def test_aggregate_over_a_relation_with_deletes(self, script, by, aggregates):
        stored = XDRelation(surveillance_schema())
        env = environment_with(stored)
        query = scan(env, "surveillance").aggregate(by, *aggregates).query()
        continuous = ContinuousQuery(query, env, engine="shared")
        for instant, (inserted, deleted) in enumerate(script, start=1):
            stored.insert(inserted, instant=instant)
            stored.delete(deleted, instant=instant)
            live = continuous.evaluate_at(instant).relation.tuples
            assert live == query.evaluate(env, instant).relation.tuples

    @given(table_scripts, periods, table_groupings, aggregate_lists("threshold"))
    @settings(max_examples=80, deadline=None)
    def test_aggregate_over_a_derived_window(self, script, period, by, aggregates):
        """W over S[insertion]: a row deleted and re-inserted sits in two
        buckets.  One-shot evaluation has no buffer, so the oracle here is
        the naive engine run continuously over its own copy."""
        results = {}
        for engine in ("naive", "shared"):
            stored = XDRelation(surveillance_schema())
            env = environment_with(stored)
            query = (
                scan(env, "surveillance")
                .stream("insertion")
                .window(period)
                .aggregate(by, *aggregates)
                .query()
            )
            continuous = ContinuousQuery(query, env, engine=engine)
            results[engine] = []
            for instant, (inserted, deleted) in enumerate(script + [([], [])] * 4, 1):
                stored.insert(inserted, instant=instant)
                stored.delete(deleted, instant=instant)
                results[engine].append(
                    continuous.evaluate_at(instant).relation.tuples
                )
        assert results["shared"] == results["naive"]


support_rows = st.sampled_from([("office",), ("roof",), ("lab",), ("hall",)])


class TestReconcileAgainstACountModel:
    @given(
        st.dictionaries(support_rows, st.integers(min_value=1, max_value=3)),
        st.lists(support_rows, max_size=8),
        st.lists(support_rows, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_plain_dict_of_counts(self, before, gained, lost):
        model = dict(before)
        for row in gained:
            model[row] = model.get(row, 0) + 1
        for row in lost:
            model[row] = model.get(row, 0) - 1
        counts = Counter(before)
        if any(n < 0 for n in model.values()):
            with pytest.raises(KeyError):
                _reconcile(counts, gained, lost)
            return
        delta = _reconcile(counts, gained, lost)
        after = {row for row, n in model.items() if n}
        assert counts == {row: model[row] for row in after}
        assert delta.inserted == after - before.keys()
        assert delta.deleted == before.keys() - after

    @given(
        st.dictionaries(support_rows, st.integers(min_value=1, max_value=3)),
        st.lists(support_rows, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_losing_the_whole_support_rebuilds_from_the_gains(self, before, gained):
        lost = list(Counter(before).elements())
        model = dict(before)
        for row in gained:
            model[row] = model.get(row, 0) + 1
        for row in lost:
            model[row] -= 1
        counts = Counter(before)
        delta = _reconcile(counts, gained, lost)
        after = {row for row, n in model.items() if n}
        assert counts == {row: model[row] for row in after} == Counter(gained)
        assert delta.inserted == after - before.keys()
        assert delta.deleted == before.keys() - after

    @given(
        st.dictionaries(
            support_rows, st.integers(min_value=1, max_value=3), min_size=1
        ),
        st.lists(support_rows, max_size=8),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_whole_support_sized_loss_of_a_foreign_row_raises(
        self, before, gained, data
    ):
        """As many losses as ``before`` holds, one of them on a row that
        never had support: the tally differs from the counts, so the
        per-row path runs and the broken delta still raises."""
        lost = list(Counter(before).elements())
        lost[data.draw(st.integers(0, len(lost) - 1))] = ("attic",)
        with pytest.raises(KeyError):
            _reconcile(Counter(before), gained, lost)
