"""A seeded random relational pervasive environment: the generic passive
and active prototypes, and the tables bound to them, that the property
tests, the rewriting tests and the T3/T5 benches build plans on."""

from __future__ import annotations

from repro.devices.determinism import stable_int, stable_unit
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.model.relation import XRelation
from repro.model.schema import RelationSchema
from repro.model.services import Service
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

__all__ = ["RandomEnvironment", "random_environment"]


class RandomEnvironment:
    """A seeded random relational pervasive environment.

    Contains one X-Relation ``items`` with:

    * real attributes ``item`` (SERVICE), ``category`` (STRING),
      ``size`` (INTEGER);
    * virtual attributes ``score`` (REAL, output of the passive
      ``getScore`` prototype) and ``done`` (BOOLEAN, output of the active
      ``doWork`` prototype with input ``category``);

    and a second plain relation ``categories(category, priority)`` to join
    with.  Services are deterministic functions of (reference, instant).
    """

    def __init__(self, seed: int = 0, num_items: int = 8, num_services: int = 4):
        self.seed = seed
        self.get_score = Prototype(
            "getScore", RelationSchema(()), RelationSchema.of(score="REAL")
        )
        self.do_work = Prototype(
            "doWork",
            RelationSchema.of(category="STRING"),
            RelationSchema.of(done="BOOLEAN"),
            active=True,
        )
        self.work_log: list[tuple[str, str, int]] = []

        env = PervasiveEnvironment()
        env.declare_prototype(self.get_score)
        env.declare_prototype(self.do_work)

        for i in range(num_services):
            reference = f"svc{i:02d}"
            env.register_service(self._make_service(reference))

        items_schema = ExtendedRelationSchema(
            "items",
            [
                Attribute("item", DataType.SERVICE),
                Attribute("category", DataType.STRING),
                Attribute("size", DataType.INTEGER),
                Attribute("score", DataType.REAL),
                Attribute("done", DataType.BOOLEAN),
            ],
            virtual={"score", "done"},
            binding_patterns=[
                BindingPattern(self.get_score, "item"),
                BindingPattern(self.do_work, "item"),
            ],
        )
        categories = ("alpha", "beta", "gamma")
        rows = []
        for i in range(num_items):
            rows.append(
                {
                    "item": f"svc{stable_int(num_services, seed, 'svc', i):02d}",
                    "category": categories[stable_int(len(categories), seed, "cat", i)],
                    "size": stable_int(50, seed, "size", i),
                }
            )
        env.add_relation(XRelation.from_mappings(items_schema, rows))

        categories_schema = ExtendedRelationSchema(
            "categories",
            [
                Attribute("category", DataType.STRING),
                Attribute("priority", DataType.INTEGER),
            ],
        )
        env.add_relation(
            XRelation.from_mappings(
                categories_schema,
                [
                    {"category": c, "priority": stable_int(5, seed, "prio", c)}
                    for c in categories
                ],
            )
        )
        self.environment = env
        self.items_schema = items_schema

    def _make_service(self, reference: str) -> Service:
        def get_score(inputs, instant):
            return [(round(stable_unit(reference, "score", instant) * 10, 3),)]

        def do_work(inputs, instant):
            (category,) = inputs
            self.work_log.append((reference, str(category), instant))
            return [(stable_unit(reference, "work", instant) > 0.2,)]

        return Service(reference, {self.get_score: get_score, self.do_work: do_work})


def random_environment(seed: int = 0, num_items: int = 8) -> RandomEnvironment:
    """Build a :class:`RandomEnvironment` (seeded, deterministic)."""
    return RandomEnvironment(seed, num_items)
