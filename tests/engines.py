"""The one differential matrix: which ``(engine, backend)`` pairs every
differential test checks against the naive oracle.

``engine`` is a scenario engine string
(:data:`repro.devices.scenario.SCENARIO_ENGINES`); tests that drive a
bare :class:`~repro.continuous.continuous_query.ContinuousQuery` — which
has no federation — use :data:`QUERY_PAIRS`.
"""

from repro.exec.lowering import ENGINES

#: The oracle: the paper's instantaneous evaluation, re-run every tick.
NAIVE = ("naive", "row")

#: Every physical configuration pinned against :data:`NAIVE`.
PAIRS = (("shared", "row"), ("shared", "columnar"), ("federated", "row"))

#: The city adds the federation on the columnar backend (its zones map
#: onto shards, so this is the one scenario where that pair is distinct).
CITY_PAIRS = PAIRS + (("federated", "columnar"),)

#: The pairs a standalone continuous query can run on.
QUERY_PAIRS = tuple(pair for pair in PAIRS if pair[0] in ENGINES)


def pair_id(pair):
    """pytest id of a pair: the engine alone on the row backend, the
    backend alone on the default (``shared``) engine."""
    engine, backend = pair
    if backend == "row":
        return engine
    return backend if engine == "shared" else f"{engine}-{backend}"
