"""In-place plan swapping and the feedback-driven re-optimizer.

``ContinuousQuery.swap_plan`` is the executor-replacement primitive both
the substitution machinery and the :class:`FeedbackReoptimizer` build on:
it must preserve the two-delta contract across the swap instant (netted
first post-swap delta, frozen pre-swap delta) and refuse the three query
classes where a cold plan would change observable semantics.
"""

import pytest

from repro.algebra import Query, Selection, col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.errors import SerenaError
from repro.model.binding import BindingPattern
from repro.exec.reoptimizer import (
    FeedbackReoptimizer,
    ReoptimizationEvent,
    _Watch,
)
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedPlanRegistry
from repro.model.attributes import Attribute
from repro.model.prototypes import Prototype
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS

from tests.exec.test_shared import build_env, prefix


def merged(env):
    return (
        scan(env, "items")
        .select(col("value").ge(2.0) & col("item").ne("item5"))
        .query("probe")
    )


def cascaded(env):
    return (
        scan(env, "items")
        .select(col("value").ge(2.0))
        .select(col("item").ne("item5"))
        .query("probe")
    )


def drive(cq, control, items, first, last):
    """Tick instants [first, last], churning one row per instant, and
    assert relation + reported delta agree with the control query."""
    for instant in range(first, last + 1):
        items.insert([(f"hot{instant}", "dev", 9.0)], instant=instant)
        a = cq.evaluate_at(instant)
        b = control.evaluate_at(instant)
        assert frozenset(a.relation) == frozenset(b.relation), instant
        assert cq.last_reported_delta == control.last_reported_delta, instant


class TestSwapPlan:
    @pytest.mark.parametrize("registry", ["private", "shared"])
    def test_equivalent_swap_preserves_the_two_delta_contract(self, registry):
        env, items = build_env()
        shared = SharedPlanRegistry(env) if registry == "shared" else None
        cq = ContinuousQuery(merged(env), env, shared=shared)
        control = ContinuousQuery(merged(env), env, engine="naive")
        drive(cq, control, items, 1, 3)
        cq.swap_plan(cascaded(env))
        assert cq.swaps == 1
        # Until the new plan's first tick, the frozen pre-swap delta keeps
        # describing the evaluation that already happened.
        assert cq.last_reported_delta == control.last_reported_delta
        drive(cq, control, items, 4, 8)

    def test_first_post_swap_delta_is_netted_not_a_rematerialization(self):
        env, items = build_env()
        cq = ContinuousQuery(merged(env), env)
        cq.evaluate_at(1)
        assert len(cq.last_result.relation) > 1
        cq.swap_plan(cascaded(env))
        items.insert([("hot2", "dev", 9.0)], instant=2)
        cq.evaluate_at(2)
        # A cold plan's own delta would re-insert the whole relation; the
        # netted delta is just the tick's actual change.
        assert cq.last_reported_delta.inserted == frozenset(
            {("hot2", "dev", 9.0)}
        )
        assert cq.last_reported_delta.deleted == frozenset()

    def test_standalone_swap_re_leases_the_common_subtree_warm(self):
        """A query built without a registry swaps on its private one: the
        unchanged scan keeps its executor instance (and state), only the
        restructured selection starts cold, and the first post-swap delta
        nets against the pre-swap relation."""
        env, _ = build_env()
        cq = ContinuousQuery(merged(env), env)
        cq.evaluate_at(1)
        registry = cq._engine.registry
        items_scan = registry.lookup(scan(env, "items").node)
        assert items_scan is not None and items_scan in cq.executors()
        before = frozenset(cq.last_result.relation)
        restructured = (
            scan(env, "items")
            .select(col("value").ge(2.0) & col("item").ne("item4"))
            .query("probe")
        )
        cq.swap_plan(restructured)
        assert cq._engine.registry is registry
        assert registry.lookup(scan(env, "items").node) is items_scan
        assert items_scan in cq.executors()
        assert not items_scan.is_first_tick  # leased warm, not rebuilt
        cq.evaluate_at(2)
        after = frozenset(cq.last_result.relation)
        assert before != after
        assert cq.last_reported_delta.inserted == after - before
        assert cq.last_reported_delta.deleted == before - after

    def test_naive_engine_is_not_swappable(self):
        env, _ = build_env()
        cq = ContinuousQuery(merged(env), env, engine="naive")
        assert not cq.swappable
        with pytest.raises(SerenaError, match="not swappable"):
            cq.swap_plan(cascaded(env))

    def test_stream_queries_are_not_swappable(self):
        env, _ = build_env()
        query = prefix(env).stream("insertion").query("s")
        cq = ContinuousQuery(query, env)
        assert not cq.swappable

    def test_active_binding_patterns_are_not_swappable(self):
        env, _ = build_env()
        siren = Prototype(
            "siren",
            ExtendedRelationSchema(
                "sirenIn", [Attribute("item", DataType.STRING)]
            ),
            ExtendedRelationSchema(
                "sirenOut", [Attribute("label", DataType.STRING)]
            ),
            active=True,
        )
        env.declare_prototype(siren)
        alarms = XDRelation(
            ExtendedRelationSchema(
                "alarms",
                [
                    Attribute("item", DataType.STRING),
                    Attribute("device", DataType.SERVICE),
                    Attribute("label", DataType.STRING),
                ],
                virtual={"label"},
                binding_patterns=[BindingPattern(siren, "device")],
            )
        )
        env.add_relation(alarms)
        query = scan(env, "alarms").invoke("siren").query("a")
        cq = ContinuousQuery(query, env)
        assert not cq.swappable

    def test_schema_mismatch_is_refused(self):
        env, _ = build_env()
        cq = ContinuousQuery(merged(env), env)
        narrower = prefix(env).project("item").query("probe")
        with pytest.raises(SerenaError, match="output"):
            cq.swap_plan(narrower)


class TestSchedulerRefresh:
    def test_refresh_unknown_name_raises(self):
        env, _ = build_env()
        scheduler = TickScheduler(env)
        cq = ContinuousQuery(merged(env), env)
        with pytest.raises(SerenaError):
            scheduler.refresh("ghost", cq)

    def test_refreshed_query_is_fresh_again(self):
        env, items = build_env()
        scheduler = TickScheduler(env)
        cq = ContinuousQuery(merged(env), env)
        scheduler.register("probe", cq)
        assert "probe" in scheduler.plan(1)
        cq.evaluate_at(1)
        scheduler.evaluated("probe", True)
        # Quiesced: nothing changed, so instant 2 would skip it...
        assert "probe" not in scheduler.plan(2)
        cq.carry_forward(2)
        scheduler.skipped("probe")
        # ...but a refresh (the post-swap re-index) marks it fresh.
        cq.swap_plan(cascaded(env))
        scheduler.refresh("probe", cq)
        assert "probe" in scheduler.plan(3)


# ---------------------------------------------------------------------------
# The feedback loop
# ---------------------------------------------------------------------------


def readings_schema():
    return ExtendedRelationSchema(
        "readings",
        [
            Attribute("item", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def catalog_schema():
    return ExtendedRelationSchema(
        "catalog",
        [
            Attribute("item", DataType.STRING),
            Attribute("label", DataType.STRING),
        ],
    )


def build_pems(rows=20):
    """A join whose selection sits *above* the join — exactly the shape
    the optimizer re-lowers once the readings churn dwarfs the estimate
    sampled at registration (when ``readings`` was empty).  A stream
    source feeds ``rows`` fresh readings every instant (distinct values
    per tick, so the 1-instant window genuinely churns)."""
    pems = PEMS()
    pems.tables.create_relation(readings_schema(), infinite=True)
    pems.tables.create_relation(catalog_schema())
    pems.tables.insert(
        "catalog",
        [{"item": f"item{i}", "label": f"L{i}"} for i in range(4)],
    )

    def feed(instant):
        pems.tables.insert(
            "readings",
            [
                {"item": f"item{i % 4}", "value": float(instant * 100 + i + 1)}
                for i in range(rows)
            ],
        )

    pems.add_stream_source(feed)
    query = (
        scan(pems.environment, "readings")
        .window(1)
        .join(scan(pems.environment, "catalog"))
        .select(col("value").gt(0.0))
        .query("probe")
    )
    cq = pems.queries.register_continuous(query)
    return pems, cq


class TestFeedbackReoptimizer:
    def test_parameter_validation(self):
        env = build_env()[0]
        with pytest.raises(ValueError, match="divergence"):
            FeedbackReoptimizer(env, divergence=1.0)
        with pytest.raises(ValueError, match="min_window"):
            FeedbackReoptimizer(env, min_window=0)

    def test_non_swappable_queries_are_not_watched(self):
        env, _ = build_env()
        reopt = FeedbackReoptimizer(env)
        cq = ContinuousQuery(merged(env), env, engine="naive")
        assert reopt.watch("probe", cq, 0) is False
        assert reopt.watched == ()

    def test_divergence_triggers_a_swap_and_stays_correct(self):
        pems, cq = build_pems()
        reopt = pems.queries.enable_reoptimization(min_window=3, cooldown=4)
        assert reopt.watched == ("probe",)
        control = pems.queries.register_continuous(
            (
                scan(pems.environment, "readings")
                .window(1)
                .join(scan(pems.environment, "catalog"))
                .select(col("value").gt(0.0))
                .query("control")
            ),
            engine="naive",
        )
        original_root = cq.query.root
        for _ in range(10):
            pems.run(1)
            assert frozenset(cq.last_result.relation) == frozenset(
                control.last_result.relation
            )
            assert cq.last_reported_delta == control.last_reported_delta
        # The estimate was sampled over an empty readings relation; 20
        # rows/tick diverges far beyond 2x, so the loop re-lowered the
        # plan — and found a structurally better one (pushed selection).
        assert reopt.log, reopt.report()
        first = reopt.log[0]
        assert first.swapped
        assert first.observed >= 2.0 * max(first.estimate, 1e-9)
        assert cq.swaps >= 1
        assert cq.query.root != original_root
        assert "swapped plan" in first.describe()

    def test_plans_are_scored_for_the_engine_that_runs_them(self, monkeypatch):
        from repro.exec import reoptimizer

        engines = []

        class Recording(reoptimizer.Optimizer):
            def __init__(self, *args, engine=None, **kwargs):
                engines.append(engine)
                super().__init__(*args, engine=engine, **kwargs)

        monkeypatch.setattr(reoptimizer, "Optimizer", Recording)
        pems, cq = build_pems()
        pems.queries.enable_reoptimization(min_window=3, cooldown=4)
        pems.run(6)
        assert engines and set(engines) == {cq.engine} == {"shared"}

    def test_decision_arms_cooldown_and_resets_the_window(self):
        pems, _ = build_pems()
        reopt = pems.queries.enable_reoptimization(min_window=2, cooldown=50)
        for _ in range(12):
            pems.run(1)
        # Divergence persists the whole run, but after the first decision
        # the cooldown holds re-examination off until instant+50.
        assert len(reopt.log) == 1

    def test_matching_observations_never_trigger(self):
        """The decision rule itself: within-factor observations are left
        alone; 2x in either direction (or any activity against a zero
        estimate) diverges only after a full window."""
        env = build_env()[0]
        reopt = FeedbackReoptimizer(env, divergence=2.0, min_window=2)
        watch = _Watch(estimate=10.0)
        watch.window.extend([12, 12])  # within 2x: no trigger
        assert reopt._divergent(watch) is None
        watch.window.clear()
        watch.window.extend([25, 25])  # 2.5x over: trigger
        assert reopt._divergent(watch) == 25.0
        watch.window.clear()
        watch.window.extend([3, 3])  # 3.3x under: trigger
        assert reopt._divergent(watch) == 3.0
        watch.window.clear()
        watch.window.append(50)  # half a window: never decide
        assert reopt._divergent(watch) is None
        # A zero estimate diverges on any observed activity, but a quiet
        # query over a zero estimate stays put.
        quiet = _Watch(estimate=0.0)
        quiet.window.extend([0, 0])
        assert reopt._divergent(quiet) is None

    def test_deregistration_unwatches(self):
        pems, _ = build_pems()
        reopt = pems.queries.enable_reoptimization()
        assert reopt.watched == ("probe",)
        pems.queries.deregister_continuous("probe")
        assert reopt.watched == ()

    def test_report_and_event_shapes(self):
        event = ReoptimizationEvent(7, "q", 1.5, 12.0, False)
        assert event.describe() == (
            "@7 q: estimated delta 1.50/tick, observed 12.00/tick — kept plan"
        )
        pems, _ = build_pems()
        reopt = pems.queries.enable_reoptimization(min_window=3, cooldown=4)
        for _ in range(5):
            pems.run(1)
        report = reopt.report()
        assert "probe" in report["watched"]
        assert report["decisions"] == [e.describe() for e in reopt.log]
