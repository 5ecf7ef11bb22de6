"""Structural plan fingerprints for cross-query sharing.

Two continuous queries that contain the same subplan — the same scans,
selections and joins over the same relations — should not each pay for
that subplan's execution.  The fingerprint of a plan is a *canonical
recursive key* computed on its :func:`repro.algebra.normalize.normalize`
normal form, so plans that differ only up to the Table 5 / classical
rewrite rules (selection merging and pushdown, projection cascades,
formula commutativity) fingerprint identically and can share one physical
executor (see :mod:`repro.exec.shared`).

Two layers:

* :func:`canonical_plan` — the normalized operator tree.  Subtrees of a
  normalized plan are themselves in normal form (the rewrite fixpoint
  leaves no applicable rule anywhere in the tree), so canonical subtrees
  can be compared and hashed directly via the operators' structural
  ``__eq__``/``__hash__``.
* :func:`plan_fingerprint` — a stable, printable digest of the canonical
  tree, used for registry introspection, sharing summaries and logs.
"""

from __future__ import annotations

import hashlib

from repro.algebra.normalize import normalize
from repro.algebra.operators.base import Operator
from repro.algebra.query import Query

__all__ = ["canonical_plan", "plan_fingerprint", "structural_key"]


def canonical_plan(plan: Operator | Query) -> Operator:
    """The plan's normal form (a bare operator tree, query names dropped)."""
    root = plan.root if isinstance(plan, Query) else plan
    normalized = normalize(root)
    assert isinstance(normalized, Operator)
    return normalized


def _atom(value: object) -> str:
    """A deterministic text for one signature component."""
    render = getattr(value, "render", None)
    if callable(render):
        return render()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_atom(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(_atom(v) for v in value)) + "}"
    return repr(value)


def structural_key(node: Operator) -> str:
    """The recursive canonical key of a (sub)tree *as given* — callers who
    want rewrite-equivalent plans to coincide must normalize first (or use
    :func:`plan_fingerprint`, which does)."""
    children = ",".join(structural_key(child) for child in node.children)
    return f"{type(node).__name__}[{_atom(node._signature())}]({children})"


def plan_fingerprint(plan: Operator | Query) -> str:
    """A stable hex digest identifying the plan up to syntactic
    equivalence: ``plan_fingerprint(a) == plan_fingerprint(b)`` whenever
    ``syntactically_equivalent(a, b)``."""
    key = structural_key(canonical_plan(plan))
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
