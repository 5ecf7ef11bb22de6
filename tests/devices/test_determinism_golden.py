"""Golden vectors for the stable draws, recorded at the commit before the
prefix form was introduced: every scenario, differential and BENCH value
in the repo depends on these bits."""

import json
from pathlib import Path

import pytest

from repro.devices.determinism import (
    stable_choice,
    stable_gauss_like,
    stable_int,
    stable_prefix,
    stable_unit,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "determinism_golden.json").read_text(encoding="utf-8")
)
VECTORS = GOLDEN["vectors"]


@pytest.mark.parametrize("vector", VECTORS, ids=lambda v: repr(v["args"])[:40])
def test_draws_are_bit_identical_to_the_recorded_vectors(vector):
    args = vector["args"]
    assert stable_unit(*args).hex() == vector["unit"]
    assert stable_gauss_like(*args).hex() == vector["gauss_like"]
    for bound, expected in vector["int"].items():
        assert stable_int(int(bound), *args) == expected
    assert stable_choice(GOLDEN["options"], *args) == vector["choice"]


@pytest.mark.parametrize(
    "vector",
    [v for v in VECTORS if len(v["args"]) >= 2],
    ids=lambda v: repr(v["args"])[:40],
)
def test_every_prefix_split_gives_the_same_bits(vector):
    args = vector["args"]
    for cut in range(1, len(args)):
        prefix = stable_prefix(*args[:cut])
        assert isinstance(prefix, bytes)
        assert stable_unit(*args[cut:], prefix=prefix).hex() == vector["unit"]
        assert (
            stable_gauss_like(*args[cut:], prefix=prefix).hex()
            == vector["gauss_like"]
        )
