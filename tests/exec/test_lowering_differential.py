"""Every lowering is ticked against the oracle.

:data:`repro.exec.lowering.LOWERINGS` is the one operator → executor
table.  Each entry must have a :func:`run_differential` case below in
which its executor advances over insertions *and* deletions (its own
input, or its parent's for a leaf) while tuples, deltas, action sets and
the outbox are compared with the naive oracle at every instant.  The
Table 4 queries cover most of the table; the set operators, γ and β∞
get cases of their own.  A late registration on
a warm engine pins ``StreamingExec.fresh_view`` over a derived operand.
Every concrete operator class of ``repro`` must have an entry.
"""

import functools
import inspect

import pytest

from repro.algebra import col, scan
from repro.algebra.operators.base import Operator
from repro.continuous.continuous_query import ContinuousQuery
from repro.exec.executors import StreamingExec
from repro.exec.lowering import LOWERINGS
from repro.exec.shared import SharedPlanRegistry

from tests.engines import NAIVE, PAIRS
from tests.exec.test_differential import (
    TICKS,
    Rig,
    camera_churn,
    contact_churn,
    feed_stream,
    ghost_camera_churn,
    q1,
    q3,
    q4,
    reported_delta,
    run_differential,
)


def emails(env):
    return scan(env, "contacts").select(col("messenger").eq("email"))


def twos(env):
    """The guests whose name holds a 2: a moving subset of ``emails``."""
    return scan(env, "contacts").select(col("name").contains("2"))


def union(env):
    return emails(env).union(twos(env)).query("union")


def intersection(env):
    return emails(env).intersect(twos(env)).query("intersection")


def difference(env):
    return emails(env).difference(twos(env)).query("difference")


def per_messenger(env):
    return (
        scan(env, "contacts")
        .aggregate(["messenger"], ("count", None, "n"))
        .query("per-messenger")
    )


def photo_checks(env):
    return scan(env, "cameras").invoke_stream("checkPhoto").query("photo-checks")


CASES = {
    "q1": (q1, (contact_churn,)),
    "q3": (q3, (feed_stream, contact_churn)),
    "q4": (q4, (feed_stream, ghost_camera_churn)),
    "union": (union, (contact_churn,)),
    "intersection": (intersection, (contact_churn,)),
    "difference": (difference, (contact_churn,)),
    "aggregate": (per_messenger, (contact_churn,)),
    "streaming-invocation": (photo_checks, (camera_churn,)),
}


@functools.cache
def exercised(case: str) -> frozenset[type]:
    """Run ``case`` against the oracle; return the operator types whose
    physical executor ticked over both insertions and deletions."""
    make, scripts = CASES[case]
    queries = run_differential(make, scripts)
    seen = set()

    def visit(executor, parent):
        fed = executor if executor.children else parent
        if (
            executor.stats.ticks > 1
            and fed is not None
            and fed.stats.input_inserted
            and fed.stats.input_deleted
        ):
            seen.add(type(executor.node))
        for child in executor.children:
            visit(child, executor)

    for engine in PAIRS:
        visit(queries[engine]._engine.root, None)
    return frozenset(seen)


@pytest.mark.parametrize("case", list(CASES))
def test_case_matches_the_oracle_over_inserts_and_deletes(case):
    make, _ = CASES[case]
    root_type = type(make(Rig().env).root)
    assert root_type in exercised(case)


def test_every_lowering_is_ticked_with_inserts_and_deletes():
    covered = frozenset().union(*(exercised(case) for case in CASES))
    missing = sorted(t.__name__ for t in LOWERINGS if t not in covered)
    assert not missing, f"no differential case ticks {missing}"


def concrete_operators(cls=Operator):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
            yield sub
        yield from concrete_operators(sub)


def test_every_concrete_operator_has_a_lowering():
    """Lowering has no fallback: an operator missing from the table
    cannot run on the physical engine at all."""
    missing = sorted(t.__name__ for t in concrete_operators() if t not in LOWERINGS)
    assert not missing, f"no lowering for {missing}"


@pytest.mark.parametrize("shape", ["same", "windowed"])
@pytest.mark.parametrize("kind", ["insertion", "deletion", "heartbeat"])
def test_a_late_stream_over_a_derived_operand_matches_a_fresh_oracle(
    kind, shape, monkeypatch
):
    """A stream over a selection runs warm for one query; a second query
    leasing it later must see what a freshly registered one sees."""
    late_at = 20

    def stream(env):
        return emails(env).stream(kind)

    def make_late(env):
        plan = stream(env) if shape == "same" else stream(env).window(3)
        return plan.query()

    views = []
    fresh_view = StreamingExec.fresh_view

    def spy(self):
        views.append(self._journal_scan_child())
        return fresh_view(self)

    monkeypatch.setattr(StreamingExec, "fresh_view", spy)
    rig = Rig()
    registry = SharedPlanRegistry(rig.env)
    warm = ContinuousQuery(
        stream(rig.env).query(), rig.env, engine=PAIRS[0], shared=registry
    )
    late = oracle = None
    rows_seen = False
    for instant in range(1, TICKS + 1):
        contact_churn(rig, instant)
        if instant == late_at:
            late = ContinuousQuery(
                make_late(rig.env), rig.env, engine=PAIRS[0], shared=registry
            )
            oracle = ContinuousQuery(make_late(rig.env), rig.env, engine=NAIVE)
        if late is not None:
            got, expected = late.evaluate_at(instant), oracle.evaluate_at(instant)
            assert got.relation.tuples == expected.relation.tuples, instant
            rows_seen = rows_seen or bool(got.relation.tuples)
            assert reported_delta(late, instant) == reported_delta(oracle, instant)
            assert frozenset(got.actions) == frozenset(expected.actions), instant
        warm.evaluate_at(instant)
    assert sorted(late.emitted) == sorted(oracle.emitted)
    assert rows_seen
    assert False in views  # fresh_view ran over the derived operand
