"""A deterministic churn scenario shared by the server tests and bench.

One ``readings(device, value)`` relation; every tick each device's value
is recomputed from a fixed formula, so rows enter and leave any
value-filtered query's result constantly — exactly the per-instant delta
traffic the subscription server exists to push.
"""

from repro.model.attributes import Attribute
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.pems.pems import PEMS

HOT_SQL = "SELECT device, value FROM readings WHERE value > 50.0"
ALL_SQL = "SELECT device, value FROM readings"


def readings_schema() -> ExtendedRelationSchema:
    return ExtendedRelationSchema(
        "readings",
        [
            Attribute("device", DataType.STRING),
            Attribute("value", DataType.REAL),
        ],
    )


def make_pems(**kwargs) -> PEMS:
    pems = PEMS(**kwargs)
    pems.tables.create_relation(readings_schema())
    return pems


def value_at(device: int, instant: int) -> float:
    return float((device * 17 + instant * 31) % 97)


class Churn:
    """Deterministic per-tick churn over ``readings``."""

    def __init__(self, pems: PEMS, devices: int = 8):
        self.pems = pems
        self.devices = devices
        self.state = {i: value_at(i, 0) for i in range(devices)}
        pems.tables.insert_tuples(
            "readings",
            [(f"d{i}", v) for i, v in self.state.items()],
            instant=pems.clock.now,
        )

    def step(self) -> int:
        """Write the next instant's values (call right before ``tick``)."""
        instant = self.pems.clock.now + 1
        for i in range(self.devices):
            new = value_at(i, instant)
            old = self.state[i]
            if new == old:
                continue
            self.pems.tables.delete_tuples(
                "readings", [(f"d{i}", old)], instant=instant
            )
            self.pems.tables.insert_tuples(
                "readings", [(f"d{i}", new)], instant=instant
            )
            self.state[i] = new
        return instant

    def hot(self) -> frozenset:
        """The expected HOT_SQL result for the current state."""
        return frozenset(
            (f"d{i}", v) for i, v in self.state.items() if v > 50.0
        )

    def rows(self) -> frozenset:
        return frozenset((f"d{i}", v) for i, v in self.state.items())
