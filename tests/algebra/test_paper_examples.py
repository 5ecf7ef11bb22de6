"""The paper's worked examples, reproduced exactly.

* Table 4's queries Q1, Q1′, Q2, Q2′ (one-shot);
* Example 6's action sets of Q1 vs Q1′;
* Example 7's equivalence verdicts (Q1 ≢ Q1′, Q2 ≡ Q2′).
"""

import pytest

from repro.algebra import Query, Selection, check_equivalence, col, scan
from repro.lang import parse_query


def q1(env):
    """β(sendMessage)(α(text:='Bonjour!')(σ(name≠'Carla')(contacts)))."""
    return (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .query("Q1")
    )


def q1_prime(env):
    """σ(name≠'Carla')(β(sendMessage)(α(text:='Bonjour!')(contacts)))."""
    inner = (
        scan(env, "contacts")
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .node
    )
    return Query(Selection(inner, col("name").ne("Carla")), "Q1prime")


def q2(env):
    """π(photo)(β(takePhoto)(σ(quality≥5)(σ(area='office')(β(checkPhoto)(cameras)))))."""
    return (
        scan(env, "cameras")
        .select(col("area").eq("office"))
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .project("photo")
        .query("Q2")
    )


def q2_prime(env):
    """The unoptimized version: select area at the end."""
    inner = (
        scan(env, "cameras")
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .select(col("area").eq("office"))
        .project("photo")
    )
    return inner.query("Q2prime")


class TestQ1:
    def test_sends_to_everyone_but_carla(self, paper):
        result = q1(paper.environment).evaluate(paper.environment)
        recipients = {m.address for m in paper.outbox.messages}
        assert recipients == {"nicolas@elysee.fr", "francois@im.gouv.fr"}
        assert len(result.relation) == 2

    def test_result_has_sent_realized(self, paper):
        result = q1(paper.environment).evaluate(paper.environment)
        assert "sent" in result.relation.schema.real_names
        assert set(result.relation.column("sent")) == {True}

    def test_example6_action_set(self, paper):
        """Example 6, verbatim: the two actions of Q1."""
        result = q1(paper.environment).evaluate(paper.environment)
        rendered = result.actions.describe()
        assert rendered == (
            "(sendMessage, email, (nicolas@elysee.fr, Bonjour!))\n"
            "(sendMessage, jabber, (francois@im.gouv.fr, Bonjour!))"
        )

    def test_example6_action_set_q1_prime(self, paper):
        """Q1′ additionally messages Carla."""
        result = q1_prime(paper.environment).evaluate(paper.environment)
        rendered = result.actions.describe()
        assert rendered == (
            "(sendMessage, email, (carla@elysee.fr, Bonjour!))\n"
            "(sendMessage, email, (nicolas@elysee.fr, Bonjour!))\n"
            "(sendMessage, jabber, (francois@im.gouv.fr, Bonjour!))"
        )

    def test_q1_prime_still_filters_result(self, paper):
        result = q1_prime(paper.environment).evaluate(paper.environment)
        assert len(result.relation) == 2  # Carla filtered from the result
        assert len(paper.outbox.messages) == 3  # ... but messaged anyway


class TestExample7Equivalence:
    def test_q1_not_equivalent_to_q1_prime(self, paper):
        """Same result, different action sets → not equivalent (Def. 9)."""
        report = check_equivalence(
            q1(paper.environment), q1_prime(paper.environment), paper.environment
        )
        assert report.same_result
        assert not report.same_actions
        assert not report.equivalent

    def test_q2_equivalent_to_q2_prime(self, paper):
        """checkPhoto/takePhoto are passive: both action sets are empty and
        the results coincide → equivalent."""
        report = check_equivalence(
            q2(paper.environment), q2_prime(paper.environment), paper.environment
        )
        assert report.equivalent

    def test_q2_cheaper_than_q2_prime(self, paper):
        """The rewritten Q2 triggers fewer (passive) invocations."""
        registry = paper.environment.registry
        before = registry.invocation_count
        q2(paper.environment).evaluate(paper.environment)
        optimized_count = registry.invocation_count - before
        before = registry.invocation_count
        q2_prime(paper.environment).evaluate(paper.environment)
        naive_count = registry.invocation_count - before
        assert optimized_count < naive_count

    def test_active_take_photo_breaks_equivalence(self, paper):
        """Example 7's closing remark: if takePhoto were tagged active,
        Q2 and Q2′ would no longer be equivalent."""
        from repro.devices.cameras import Camera
        from repro.devices.prototypes import CHECK_PHOTO
        from repro.model.attributes import Attribute
        from repro.model.binding import BindingPattern
        from repro.model.environment import PervasiveEnvironment
        from repro.model.prototypes import Prototype
        from repro.model.relation import XRelation
        from repro.model.schema import RelationSchema
        from repro.model.services import Service
        from repro.model.types import DataType
        from repro.model.xschema import ExtendedRelationSchema

        take_photo_active = Prototype(
            "takePhoto",
            RelationSchema.of(area="STRING", quality="INTEGER"),
            RelationSchema.of(photo="BLOB"),
            active=True,
        )
        env = PervasiveEnvironment()
        env.declare_prototype(CHECK_PHOTO)
        env.declare_prototype(take_photo_active)
        cameras = {}
        for ref, area in (("camera01", "office"), ("camera02", "corridor")):
            camera = Camera(ref, area, quality=8)
            cameras[ref] = camera

            def check(inputs, instant, camera=camera):
                (area,) = inputs
                return camera.check_photo(str(area), instant)

            def take(inputs, instant, camera=camera):
                area, quality = inputs
                return camera.take_photo(str(area), int(quality), instant)

            env.register_service(
                Service(ref, {CHECK_PHOTO: check, take_photo_active: take})
            )
        schema = ExtendedRelationSchema(
            "cameras",
            [
                Attribute("camera", DataType.SERVICE),
                Attribute("area", DataType.STRING),
                Attribute("quality", DataType.INTEGER),
                Attribute("delay", DataType.REAL),
                Attribute("photo", DataType.BLOB),
            ],
            virtual={"quality", "delay", "photo"},
            binding_patterns=[
                BindingPattern(CHECK_PHOTO, "camera"),
                BindingPattern(take_photo_active, "camera"),
            ],
        )
        env.add_relation(
            XRelation.from_mappings(
                schema,
                [
                    {"camera": "camera01", "area": "office"},
                    {"camera": "camera02", "area": "corridor"},
                ],
            )
        )
        report = check_equivalence(q2(env), q2_prime(env), env)
        assert report.same_result
        assert not report.same_actions
        assert not report.equivalent


class TestTable4ViaSAL:
    """The same queries written in the Serena Algebra Language."""

    def test_q1_text(self, paper):
        query = parse_query(
            "invoke[sendMessage, messenger](assign[text := 'Bonjour!']("
            "select[name != 'Carla'](contacts)))",
            paper.environment,
            "Q1",
        )
        result = query.evaluate(paper.environment)
        assert len(result.actions) == 2

    def test_q2_text(self, paper):
        query = parse_query(
            "project[photo](invoke[takePhoto, camera](select[quality >= 5]("
            "invoke[checkPhoto, camera](select[area = 'office'](cameras)))))",
            paper.environment,
            "Q2",
        )
        result = query.evaluate(paper.environment)
        assert result.relation.schema.names == ("photo",)
        assert len(result.relation) >= 1
