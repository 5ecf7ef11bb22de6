"""Unit tests for the delta contract and the compile-at-lowering helpers.

Covers :class:`~repro.exec.delta.Delta` (coalesce, order-insensitive
equality and repr) and the closures :mod:`repro.exec.compile` builds once
per executor — batch filters, row gathers, join-key gathers and join
output combiners — plus the bounded code cache behind them.
"""

import pytest

from repro.algebra import scan
from repro.algebra.formula import And, Not, Or, TrueFormula, col
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import surveillance_schema
from repro.errors import FormulaError
from repro.exec import compile as compiling
from repro.exec.compile import (
    compile_combiner,
    compile_filter,
    compile_gather,
    compile_key,
)
from repro.exec.delta import EMPTY_DELTA, Delta, coalesce_sets
from repro.exec.executors import SelectionExec
from repro.exec.shared import SharedPlanRegistry
from repro.model.environment import PervasiveEnvironment

ANA = ("Ana", "office", 30.0)
BO = ("Bo", "roof", 10.0)
CY = ("Cy", "office", 20.0)


# ---------------------------------------------------------------------------
# The delta contract: equality, repr, coalesce
# ---------------------------------------------------------------------------


class TestDeltaContract:
    def test_equality_is_order_insensitive(self):
        delta = Delta(frozenset([ANA, BO]), frozenset([CY]))
        same = Delta(frozenset([BO, ANA]), frozenset([CY]))
        assert delta == same and hash(delta) == hash(same)
        assert delta != Delta(frozenset([ANA]), frozenset())
        assert delta != object()

    def test_repr_is_deterministic_and_diffs_cleanly(self):
        delta = Delta(frozenset([BO, ANA]), frozenset())
        assert repr(delta) == (
            "Delta(+2 {('Ana', 'office', 30.0), "
            "('Bo', 'roof', 10.0)}, -0 {})"
        )

    def test_coalesce_cancels_insert_then_delete(self):
        first = Delta(frozenset([ANA, BO]), frozenset())
        later = Delta(frozenset([CY]), frozenset([ANA]))
        merged = first.coalesce(later)
        assert merged.inserted == {BO, CY}
        assert merged.deleted == frozenset()

    def test_coalesce_cancels_delete_then_insert(self):
        first = Delta(frozenset(), frozenset([ANA]))
        later = Delta(frozenset([ANA]), frozenset())
        assert first.coalesce(later) is EMPTY_DELTA

    def test_coalesce_sets_algebra(self):
        ins, dels = coalesce_sets(
            frozenset("ab"), frozenset("c"), frozenset("cd"), frozenset("a")
        )
        assert ins == frozenset("bd") and dels == frozenset()


# ---------------------------------------------------------------------------
# Compiled closures
# ---------------------------------------------------------------------------


SCHEMA = surveillance_schema()  # (name, location, threshold)
ROWS = [ANA, BO, CY, ("Dee", "lab", None)]


def compile_predicate(formula, schema=SCHEMA):
    """The compiled filter as a one-row predicate, beside the interpreter
    path it must agree with."""
    fast_batch, slow = compile_filter(formula, schema)
    return (lambda t: bool(fast_batch([t]))), slow


class TestCompilePredicate:
    def agree(self, formula, rows=ROWS):
        fast, slow = compile_predicate(formula)
        assert [fast(t) for t in rows] == [slow(t) for t in rows]
        return fast

    def test_comparisons(self):
        fast = self.agree(col("location").eq("office"))
        assert [fast(t) for t in ROWS] == [True, False, True, False]
        self.agree(col("name").ne("Bo"))
        self.agree(col("threshold").ge(20.0), rows=ROWS[:3])

    def test_attribute_to_attribute(self):
        from repro.algebra.formula import Comparison

        formula = Comparison(
            "name", "=", "location", left_is_attr=True, right_is_attr=True
        )
        fast, slow = compile_predicate(formula)
        rows = [("x", "x", 1.0), ("x", "y", 1.0)]
        assert [fast(t) for t in rows] == [slow(t) for t in rows] == [True, False]

    def test_connectives_short_circuit_like_the_interpreter(self):
        formula = Or(
            col("location").eq("roof"),
            And(col("threshold").gt(25.0), Not(col("name").eq("Cy"))),
        )
        fast = self.agree(formula, rows=ROWS[:3])
        assert [fast(t) for t in ROWS[:3]] == [True, True, False]
        # Short circuit: the left disjunct passing must skip the right
        # one, which would raise on Dee's None threshold.
        assert fast(("Dee", "roof", None)) is True

    def test_true_formula(self):
        fast, slow = compile_predicate(TrueFormula())
        assert fast(ANA) is True and slow(ANA) is True

    def test_contains_error_parity(self):
        # fast inlines native ``in`` (TypeError on non-strings) where the
        # interpreter raises FormulaError; executors replay via slow.
        fast, slow = compile_predicate(col("name").contains("n"))
        assert fast(ANA) is True and fast(BO) is False
        with pytest.raises((TypeError, FormulaError)):
            fast((None, "office", 1.0))
        with pytest.raises(FormulaError):
            slow((None, "office", 1.0))

    def test_ordering_error_parity(self):
        # fast raises a bare TypeError where the interpreter raises
        # FormulaError; the executor replays the batch through slow.
        fast, slow = compile_predicate(col("threshold").gt(25.0))
        bad = ("Dee", "lab", None)
        with pytest.raises((TypeError, FormulaError)):
            fast(bad)
        with pytest.raises(FormulaError):
            slow(bad)

    def test_arbitrary_constants_survive(self):
        # Constants bind through the namespace, never via repr().
        class Odd:
            def __eq__(self, other):
                return other == "office"

            def __hash__(self):
                return 0

        fast, _ = compile_predicate(col("location").eq(Odd()))
        assert fast(ANA) is True and fast(BO) is False


class TestCompileFilter:
    def test_batch_filter_agrees_with_the_interpreter(self):
        formula = col("location").eq("office") & col("threshold").ge(20.0)
        fast_batch, slow = compile_filter(formula, SCHEMA)
        assert fast_batch(ROWS[:3]) == [t for t in ROWS[:3] if slow(t)]
        assert fast_batch([]) == []

    def test_batch_filter_error_escapes_for_replay(self):
        fast_batch, slow = compile_filter(col("threshold").gt(25.0), SCHEMA)
        with pytest.raises((TypeError, FormulaError)):
            fast_batch(ROWS)  # Dee's None threshold poisons the batch
        with pytest.raises(FormulaError):
            [slow(t) for t in ROWS]


class TestCompileKeyAndCombiner:
    def test_empty_key(self):
        keys = compile_key([])
        assert keys([("a",), ("b",)]) == [(), ()]

    def test_single_key_is_the_bare_value(self):
        keys = compile_key([1])
        assert keys([("a", "x"), ("b", "y")]) == ["x", "y"]

    def test_composite_key_builds_tuples(self):
        keys = compile_key([2, 0])
        rows = [("a", "x", 1), ("b", "y", 2)]
        assert keys(rows) == [(1, "a"), (2, "b")]

    def test_combiner(self):
        combine = compile_combiner([(True, 0), (False, 2), (True, 1)])
        assert combine(("a", "b"), ("x", "y", "z")) == ("a", "z", "b")
        single = compile_combiner([(False, 0)])
        assert single(("a",), ("x",)) == ("x",)


class TestCompileGather:
    def test_projection_keeps_positions_in_order(self):
        gather = compile_gather([2, 0])
        assert gather([ANA, BO]) == [(30.0, "Ana"), (10.0, "Bo")]
        assert compile_gather([1])([ANA]) == [("office",)]

    def test_no_positions_yields_empty_rows(self):
        assert compile_gather([])([ANA, BO]) == [(), ()]

    def test_none_splices_the_constant(self):
        marker = object()  # bound through the namespace, never via repr
        gather = compile_gather([0, None, 1, 2], marker)
        assert gather([ANA]) == [("Ana", marker, "office", 30.0)]

    def test_accepts_any_iterable_of_rows(self):
        assert compile_gather([0])(frozenset([ANA])) == [("Ana",)]


class TestCodeCache:
    """Source text → code object is cached; closures are not."""

    def selections(self, constants):
        """One ``σ(location = c)`` per constant, each lowered by its own
        acquisition on one shared-plan registry."""
        env = PervasiveEnvironment()
        env.add_relation(XDRelation(surveillance_schema()))
        registry = SharedPlanRegistry(env)
        executors = []
        for index, constant in enumerate(constants):
            query = (
                scan(env, "surveillance")
                .select(col("location").eq(constant))
                .query(f"q{index}")
            )
            root = registry.acquire(query).root
            assert isinstance(root, SelectionExec)
            executors.append(root)
        return executors

    def test_same_shape_shares_code_but_not_closures(self):
        class Anywhere:
            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

        office, quoted, anywhere = self.selections(
            ["office", "ro'o\"f", Anywhere()]
        )
        filters = [e._filter for e in (office, quoted, anywhere)]
        assert len({id(f) for f in filters}) == 3
        assert len({id(f.__code__) for f in filters}) == 1
        # Each closure still filters by its own constant.
        quoted_row = ("Dee", "ro'o\"f", 1.0)
        rows = [ANA, BO, quoted_row]
        assert office._filter(rows) == [ANA]
        assert quoted._filter(rows) == [quoted_row]
        assert anywhere._filter(rows) == rows
        for compiled in filters:
            assert compiled.__globals__["__builtins__"] == {}

    def test_different_shapes_get_different_code(self):
        eq, _ = compile_filter(col("location").eq("office"), SCHEMA)
        ne, _ = compile_filter(col("location").ne("office"), SCHEMA)
        assert eq.__code__ is not ne.__code__

    def test_cache_is_bounded_and_says_so(self):
        maxsize = compiling._code.cache_parameters()["maxsize"]
        assert maxsize is not None
        assert f"maxsize={maxsize}" in compiling._code.__doc__
