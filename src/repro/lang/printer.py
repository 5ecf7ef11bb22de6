"""Pretty-printers for Serena plans.

Two renderings:

* :func:`to_sal` — the Serena Algebra Language text (identical to
  :meth:`Operator.render`; re-exported here for symmetry with the parser);
* :func:`to_math` — compact mathematical notation in the style of Table 4,
  e.g. ``π[photo](σ[quality >= 5](β[takePhoto[camera]](cameras)))``;
* :func:`explain` — a multi-line, indented operator tree annotated with
  each node's output schema (virtual attributes starred) — the
  EXPLAIN-style output used in examples and docs;
* :func:`explain_physical` — the *lowered* physical plan of a logical
  query: executor classes plus shared/private markers against a
  shared-plan registry;
* :func:`explain_analyze` — EXPLAIN ANALYZE: a registered continuous
  query's physical plan annotated with the cumulative per-executor run
  statistics (delta cardinalities, rows scanned, invocation outcomes,
  shared refcounts — see :mod:`repro.obs.analyze`);
* :func:`to_dot` — a Graphviz digraph of the plan (one node per operator,
  labeled with its symbol and output schema) for papers and slides.
"""

from __future__ import annotations

from repro.algebra.operators.base import Operator
from repro.algebra.query import Query

__all__ = [
    "to_sal",
    "to_math",
    "explain",
    "explain_analyze",
    "explain_physical",
    "to_dot",
]


def _root(plan: Operator | Query) -> Operator:
    return plan.root if isinstance(plan, Query) else plan


def to_sal(plan: Operator | Query) -> str:
    """The plan in the Serena Algebra Language (parseable back)."""
    return _root(plan).render()


def to_math(plan: Operator | Query) -> str:
    """The plan in Table 4's mathematical notation."""
    node = _root(plan)
    if not node.children:
        return node.render()
    inner = ", ".join(to_math(child) for child in node.children)
    return f"{node.symbol()}({inner})"


def explain(plan: Operator | Query) -> str:
    """Indented tree with per-node schemas."""
    lines: list[str] = []
    _explain(_root(plan), 0, lines)
    return "\n".join(lines)


def explain_analyze(continuous) -> str:
    """EXPLAIN ANALYZE of a registered
    :class:`~repro.continuous.continuous_query.ContinuousQuery`: its
    physical plan with cumulative per-executor statistics."""
    from repro.obs.analyze import render_analyze  # obs layers under lang

    return render_analyze(continuous)


def explain_physical(plan: Operator | Query, registry=None) -> str:
    """The lowered physical plan of a logical query: executor classes,
    with subtrees marked shared when ``registry`` (a
    :class:`~repro.exec.shared.SharedPlanRegistry`) already runs them."""
    from repro.obs.analyze import render_physical

    return render_physical(plan, registry)


def to_dot(plan: Operator | Query, name: str = "plan") -> str:
    """A Graphviz ``digraph`` of the plan, edges child → parent (dataflow).

    Render with ``dot -Tsvg``; labels show each operator's symbol and the
    schema it produces (virtual attributes starred).
    """
    root = _root(plan)
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    ids: dict[int, str] = {}
    for position, node in enumerate(root.walk()):
        ids[node.uid] = f"n{position}"
        schema = node.schema
        columns = ", ".join(
            a.name + ("*" if a.name in schema.virtual_names else "")
            for a in schema.attributes
        )
        label = f"{node.symbol()}\\n({columns})".replace('"', "'")
        lines.append(f'  {ids[node.uid]} [label="{label}"];')
    for node in root.walk():
        for child in node.children:
            lines.append(f"  {ids[child.uid]} -> {ids[node.uid]};")
    lines.append("}")
    return "\n".join(lines)


def _explain(node: Operator, depth: int, lines: list[str]) -> None:
    schema = node.schema
    columns = ", ".join(
        a.name + ("*" if a.name in schema.virtual_names else "")
        for a in schema.attributes
    )
    bps = len(schema.binding_patterns)
    stream = " [stream]" if node.is_stream else ""
    lines.append(
        f"{'  ' * depth}{node.symbol()}  →  ({columns})"
        + (f"  BP×{bps}" if bps else "")
        + stream
    )
    for child in node.children:
        _explain(child, depth + 1, lines)
