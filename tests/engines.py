"""The one differential matrix: which engines every differential test
checks against the naive oracle.

Each name is a scenario engine string
(:data:`repro.devices.scenario.SCENARIO_ENGINES`); tests that drive a
bare :class:`~repro.continuous.continuous_query.ContinuousQuery` — which
has no federation — use :data:`QUERY_PAIRS`.
"""

from repro.exec.lowering import ENGINES

#: The oracle: the paper's instantaneous evaluation, re-run every tick.
NAIVE = "naive"

#: Every physical configuration pinned against :data:`NAIVE`.
PAIRS = ("shared", "federated")

#: The engines a standalone continuous query can run on.
QUERY_PAIRS = tuple(engine for engine in PAIRS if engine in ENGINES)
