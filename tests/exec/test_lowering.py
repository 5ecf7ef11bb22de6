"""Lowering: logical plans → physical executor trees."""

from typing import Sequence

import pytest

from repro.algebra import col, scan
from repro.algebra.operators.base import Operator
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import surveillance_schema, temperatures_schema
from repro.exec import lower, lowering_summary, supported_operator
from repro.exec.executors import (
    FallbackExec,
    JoinExec,
    ScanExec,
    SelectionExec,
    WindowExec,
)
from repro.model.relation import XRelation
from repro.model.xschema import ExtendedRelationSchema


def paper_env():
    return build_paper_example().environment


def test_table3_plan_lowers_natively():
    env = paper_env()
    query = (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Hi")
        .invoke("sendMessage")
        .project("name", "sent")
        .query("q")
    )
    root = lower(query.root)
    for executor in root.walk():
        assert not isinstance(executor, FallbackExec)
        assert supported_operator(executor.node)
    summary = lowering_summary(query.root)
    assert summary["fallback"] == 0
    assert summary["native"] == len(list(query.root.walk()))


def test_continuous_operators_lower_natively():
    env = paper_env()
    env.add_relation(XDRelation(temperatures_schema(), infinite=True))
    query = (
        scan(env, "temperatures")
        .window(3)
        .select(col("temperature").gt(30.0))
        .stream("insertion")
        .query("q")
    )
    root = lower(query.root)
    kinds = [type(e) for e in root.walk()]
    assert FallbackExec not in kinds
    assert WindowExec in kinds and ScanExec in kinds


def test_shared_subplan_lowered_once():
    env = paper_env()
    shared = scan(env, "contacts").select(col("messenger").ne("sms")).node
    from repro.algebra.operators.setops import Union

    plan = Union(shared, shared)
    root = lower(plan)
    left_child, right_child = root.children
    assert left_child is right_child
    assert isinstance(left_child, SelectionExec)


def test_unknown_operator_falls_back():
    class Exotic(Operator):
        def __init__(self, child: Operator):
            super().__init__((child,))

        def _derive_schema(self) -> ExtendedRelationSchema:
            return self.children[0].schema

        def with_children(self, children: Sequence[Operator]) -> "Exotic":
            (child,) = children
            return Exotic(child)

        def _compute(self, ctx):
            return self.children[0].evaluate(ctx)

        def render(self) -> str:
            return f"exotic({self.children[0].render()})"

    env = paper_env()
    node = Exotic(scan(env, "contacts").node)
    assert not supported_operator(node)
    root = lower(node)
    assert isinstance(root, FallbackExec)
    # The fallback subsumes its subtree: no children are lowered.
    assert root.children == ()
    assert lowering_summary(node) == {"native": 0, "fallback": 1}


def test_fallback_subtree_still_runs():
    """A plan with an un-lowerable node produces correct results."""

    class Twice(Operator):
        """Doubles nothing — identity, but unknown to the lowering pass."""

        def __init__(self, child: Operator):
            super().__init__((child,))

        def _derive_schema(self) -> ExtendedRelationSchema:
            return self.children[0].schema

        def with_children(self, children: Sequence[Operator]) -> "Twice":
            (child,) = children
            return Twice(child)

        def _compute(self, ctx):
            return self.children[0].evaluate(ctx)

        def render(self) -> str:
            return f"twice({self.children[0].render()})"

    from repro.algebra.query import Query
    from repro.exec import SharedEngine
    from repro.model.environment import PervasiveEnvironment

    env = PervasiveEnvironment()
    stored = XDRelation(surveillance_schema())
    stored.insert_mappings(
        [{"name": "Ana", "location": "office", "threshold": 30.0}], instant=0
    )
    env.add_relation(stored)
    engine = SharedEngine(
        Query(Twice(scan(env, "surveillance").node), "q"), env
    )
    result = engine.tick(1)
    assert {t for t in result.relation} == {("Ana", "office", 30.0)}
    stored.insert_mappings(
        [{"name": "Bo", "location": "roof", "threshold": 10.0}], instant=2
    )
    result = engine.tick(2)
    assert len(result.relation) == 2


def test_static_base_relation_lowers():
    env = paper_env()
    from repro.algebra.query import Query
    from repro.exec import SharedEngine

    query = Query(scan(env, "cameras").node, "cams")
    engine = SharedEngine(query, env)
    first = engine.tick(0)
    second = engine.tick(1)
    assert first.relation is second.relation  # unchanged tick: cached object
    assert not engine.change
