"""Tests for the relational operators over X-Relations (Table 3a–3d)."""

import pytest

from repro.algebra import (
    Difference,
    Intersection,
    NaturalJoin,
    Projection,
    Renaming,
    Scan,
    Selection,
    Union,
    col,
    scan,
)
from repro.devices.scenario import contacts_schema, surveillance_schema
from repro.errors import (
    InvalidOperatorError,
    UnknownAttributeError,
    VirtualAttributeError,
)
from repro.model.attributes import Attribute
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema


class TestProjection:
    def test_tuples_projected_onto_real_kept(self, paper_env):
        q = scan(paper_env, "contacts").project("name", "messenger").query()
        result = q.evaluate(paper_env).relation
        assert sorted(result.tuples) == [
            ("Carla", "email"),
            ("Francois", "jabber"),
            ("Nicolas", "email"),
        ]

    def test_projection_onto_virtuals_only_keeps_empty_tuples(self, paper_env):
        """Projecting onto only virtual attrs yields 0-ary tuples: the
        relation collapses to at most one (empty) tuple."""
        q = scan(paper_env, "contacts").project("text", "sent").query()
        result = q.evaluate(paper_env).relation
        assert len(result) == 1
        assert () in result

    def test_duplicates_collapse(self, paper_env):
        q = scan(paper_env, "contacts").project("messenger").query()
        result = q.evaluate(paper_env).relation
        assert sorted(result.tuples) == [("email",), ("jabber",)]

    def test_empty_names_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError):
            scan(paper_env, "contacts").project()

    def test_duplicate_names_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError):
            scan(paper_env, "contacts").project("name", "name")

    def test_unknown_name_rejected(self, paper_env):
        with pytest.raises(UnknownAttributeError):
            scan(paper_env, "contacts").project("ghost")


class TestSelection:
    def test_filters(self, paper_env):
        q = scan(paper_env, "contacts").select(col("messenger").eq("email")).query()
        result = q.evaluate(paper_env).relation
        assert result.column("name") == ["Carla", "Nicolas"]

    def test_schema_unchanged(self, paper_env):
        node = scan(paper_env, "contacts").select(col("name").eq("Carla")).node
        assert node.schema.compatible(paper_env.schema("contacts"))

    def test_virtual_attribute_in_formula_rejected(self, paper_env):
        with pytest.raises(VirtualAttributeError):
            scan(paper_env, "contacts").select(col("text").eq("x"))

    def test_empty_result(self, paper_env):
        q = scan(paper_env, "contacts").select(col("name").eq("Ghost")).query()
        assert len(q.evaluate(paper_env).relation) == 0

    def test_conjunction(self, paper_env):
        q = (
            scan(paper_env, "contacts")
            .select(col("messenger").eq("email") & col("name").ne("Carla"))
            .query()
        )
        assert q.evaluate(paper_env).relation.column("name") == ["Nicolas"]


class TestRenaming:
    def test_values_preserved(self, paper_env):
        q = scan(paper_env, "contacts").rename("name", "who").query()
        result = q.evaluate(paper_env).relation
        assert result.column("who") == ["Carla", "Francois", "Nicolas"]

    def test_can_select_on_new_name(self, paper_env):
        q = (
            scan(paper_env, "contacts")
            .rename("name", "who")
            .select(col("who").eq("Carla"))
            .query()
        )
        assert len(q.evaluate(paper_env).relation) == 1


class TestSetOperators:
    def _rel(self, *names):
        return XRelation.from_mappings(
            contacts_schema(),
            [
                {"name": n, "address": f"{n.lower()}@x.org", "messenger": "email"}
                for n in names
            ],
        )

    def _scans(self, left, right):
        """An environment holding ``left`` and ``right``, and a scan of each."""
        env = PervasiveEnvironment()
        env.add_relation(left, "left")
        env.add_relation(right, "right")
        return env, scan(env, "left").node, scan(env, "right").node

    def test_union(self):
        from repro.algebra import Query

        env, left, right = self._scans(self._rel("A", "B"), self._rel("B", "C"))
        result = Query(Union(left, right)).evaluate(env).relation
        assert result.column("name") == ["A", "B", "C"]

    def test_intersection(self):
        from repro.algebra import Query

        env, left, right = self._scans(self._rel("A", "B"), self._rel("B", "C"))
        q = Intersection(left, right)
        assert Query(q).evaluate(env).relation.column("name") == ["B"]

    def test_difference(self):
        from repro.algebra import Query

        env, left, right = self._scans(self._rel("A", "B"), self._rel("B", "C"))
        q = Difference(left, right)
        assert Query(q).evaluate(env).relation.column("name") == ["A"]

    def test_incompatible_schemas_rejected(self):
        _, left, other = self._scans(
            self._rel("A"), XRelation(surveillance_schema())
        )
        with pytest.raises(InvalidOperatorError, match="not compatible"):
            Union(left, other)

    def test_result_schema_keeps_binding_patterns(self):
        _, left, right = self._scans(self._rel("A"), self._rel("B"))
        node = Union(left, right)
        assert len(node.schema.binding_patterns) == 1


class TestNaturalJoin:
    def test_join_on_common_real_attribute(self, paper_env):
        """contacts ⋈ surveillance-like relation on name."""
        assignments = XRelation.from_mappings(
            ExtendedRelationSchema(
                "assignments",
                [
                    Attribute("name", DataType.STRING),
                    Attribute("location", DataType.STRING),
                ],
            ),
            [
                {"name": "Carla", "location": "office"},
                {"name": "Nobody", "location": "basement"},
            ],
        )
        paper_env.add_relation(assignments)
        q = scan(paper_env, "contacts").join(scan(paper_env, "assignments")).query()
        result = q.evaluate(paper_env).relation
        assert len(result) == 1
        (row,) = result.to_mappings()
        assert row["name"] == "Carla"
        assert row["location"] == "office"

    def test_no_common_attributes_is_product(self, paper_env):
        locations = XRelation.from_mappings(
            ExtendedRelationSchema(
                "locations", [Attribute("location", DataType.STRING)]
            ),
            [{"location": "office"}, {"location": "roof"}],
        )
        paper_env.add_relation(locations)
        q = scan(paper_env, "contacts").join(scan(paper_env, "locations")).query()
        assert len(q.evaluate(paper_env).relation) == 6  # 3 × 2

    def test_join_attribute_virtual_on_one_side_is_product(self, paper_env):
        """Only attributes real in BOTH operands imply a join predicate;
        'text' (virtual in contacts, real here) does not filter."""
        texts = XRelation.from_mappings(
            ExtendedRelationSchema("texts", [Attribute("text", DataType.STRING)]),
            [{"text": "Hello"}, {"text": "Goodbye"}],
        )
        paper_env.add_relation(texts)
        q = scan(paper_env, "contacts").join(scan(paper_env, "texts")).query()
        result = q.evaluate(paper_env).relation
        assert len(result) == 6  # Cartesian product at the tuple level
        # ... but 'text' is now REAL in the result (implicit realization)
        assert "text" in result.schema.real_names
        assert set(result.column("text")) == {"Hello", "Goodbye"}

    def test_implicit_realization_drops_binding_pattern_output(self, paper_env):
        sents = XRelation.from_mappings(
            ExtendedRelationSchema("sents", [Attribute("sent", DataType.BOOLEAN)]),
            [{"sent": True}],
        )
        paper_env.add_relation(sents)
        node = scan(paper_env, "contacts").join(scan(paper_env, "sents")).node
        assert node.schema.binding_patterns == ()

    def test_join_is_commutative_on_tuples(self, paper_env):
        surveillance = XRelation.from_mappings(
            surveillance_schema(), [{"name": "Carla", "location": "office", "threshold": 28.0}]
        )
        paper_env.add_relation(surveillance, "watch")
        watch = scan(paper_env, "watch")
        left = scan(paper_env, "contacts").join(watch).query()
        right_first = (
            scan(paper_env, "contacts").node
        )
        from repro.algebra import Query

        right = Query(NaturalJoin(watch.node, right_first))
        r1 = left.evaluate(paper_env).relation
        r2 = right.evaluate(paper_env).relation
        assert {frozenset(m.items()) for m in r1.to_mappings()} == {
            frozenset(m.items()) for m in r2.to_mappings()
        }


class TestScan:
    def test_scan_reads_current_state(self, paper_env):
        q = scan(paper_env, "contacts").query()
        assert len(q.evaluate(paper_env).relation) == 3

    def test_scan_unknown_relation(self, paper_env):
        from repro.errors import UnknownRelationError

        with pytest.raises(UnknownRelationError):
            scan(paper_env, "ghost")

    def test_scan_schema_change_detected(self, paper_env):
        q = scan(paper_env, "contacts").query()
        paper_env.remove_relation("contacts")
        paper_env.add_relation(
            XRelation(surveillance_schema()), name="contacts"
        )
        with pytest.raises(InvalidOperatorError, match="changed schema"):
            q.evaluate(paper_env)

    def test_scan_is_leaf(self, paper_env):
        node = scan(paper_env, "contacts").node
        assert node.children == ()
        with pytest.raises(InvalidOperatorError):
            node.with_children([node])
