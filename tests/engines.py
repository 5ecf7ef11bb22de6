"""The one differential matrix: which engines every differential test
checks against the naive oracle (names from
:data:`repro.exec.lowering.ENGINES`)."""

#: The oracle: the paper's instantaneous evaluation, re-run every tick.
NAIVE = "naive"

#: Every physical configuration pinned against :data:`NAIVE`.
PAIRS = ("shared",)
