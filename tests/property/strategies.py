"""Shared hypothesis strategies for property-based tests.

Strategies generate values against the ``items`` relation of
:class:`tests.environments.RandomEnvironment`:

* real attributes ``item`` (SERVICE), ``category`` (STRING),
  ``size`` (INTEGER);
* virtual attributes ``score`` (REAL, passive getScore) and ``done``
  (BOOLEAN, active doWork).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.algebra.formula import And, Comparison, Not, Or, col

CATEGORIES = ("alpha", "beta", "gamma")

#: Comparisons over the real attributes of ``items``.
comparisons = st.one_of(
    st.sampled_from(CATEGORIES).map(lambda c: col("category").eq(c)),
    st.sampled_from(CATEGORIES).map(lambda c: col("category").ne(c)),
    st.integers(min_value=0, max_value=50).map(lambda n: col("size").lt(n)),
    st.integers(min_value=0, max_value=50).map(lambda n: col("size").ge(n)),
    st.sampled_from(["svc00", "svc01", "svc02", "svc03"]).map(
        lambda s: col("item").eq(s)
    ),
)


def formulas(max_depth: int = 3):
    """Random selection formulas over the items relation's real schema."""
    return st.recursive(
        comparisons,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            children.map(Not),
        ),
        max_leaves=max_depth,
    )


#: Rows matching the real schema of ``items``.
item_rows = st.fixed_dictionaries(
    {
        "item": st.sampled_from(["svc00", "svc01", "svc02", "svc03"]),
        "category": st.sampled_from(CATEGORIES),
        "size": st.integers(min_value=0, max_value=50),
    }
)
