"""EXPLAIN ANALYZE: the lowered physical plan annotated with run stats.

Two views over a continuous query's physical plan:

* :func:`analyze_rows` — structured per-executor rows (one dict per
  physical node, depth-first): operator symbol, executor class,
  shared/private status (with the shared entry's refcount), cumulative
  input/output delta cardinalities, rows scanned, invocation outcome
  counts (issued vs. memo-hit vs. fast-failed vs. device failure) and the
  current pending tuple count;
* :func:`render_analyze` — the human-readable indented tree the CLI's
  ``.analyze`` command (and ``lang/printer.explain_analyze``) prints.

The stats come from the always-on :class:`~repro.exec.executors.ExecStats`
counters every executor maintains — EXPLAIN ANALYZE is a pure read and
never perturbs the plan.  Under sharing the physical plan is a DAG: an
executor reached through a second parent is rendered once, with a
back-reference marker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily at runtime (exec layers on obs)
    from repro.continuous.continuous_query import ContinuousQuery
    from repro.exec.executors import Executor
    from repro.exec.shared import SharedPlanRegistry

__all__ = [
    "analyze_rows",
    "render_analyze",
    "render_physical",
]


def _label(executor: "Executor") -> str:
    """The operator symbol; a window that reads its stream's journal
    (a leaf, with no scan under it) also names the stream."""
    from repro.exec.executors import WindowExec

    symbol = executor.node.symbol()
    if isinstance(executor, WindowExec) and not executor.children:
        return f"{symbol} ← {executor.node.children[0].name}"
    return symbol


def analyze_rows(continuous: "ContinuousQuery") -> list[dict]:
    """Per-executor stat rows of a registered continuous query's plan
    (empty on the naive engine, which has no physical plan)."""
    from repro.exec.executors import (
        InvocationExec,
        ScanExec,
        StreamingInvocationExec,
    )

    engine = continuous._engine
    if engine is None:
        return []
    # id(executor) → refcount for every live entry of the query's registry.
    shared = {
        id(entry.executor): entry.refcount
        for entry in engine.registry._entries.values()
    }
    rows: list[dict] = []
    seen: dict[int, int] = {}

    def visit(executor: "Executor", depth: int) -> None:
        key = id(executor)
        if key in seen:
            rows.append(
                {
                    "depth": depth,
                    "operator": _label(executor),
                    "executor": type(executor).__name__,
                    "ref": seen[key],
                    "repeat": True,
                }
            )
            return
        index = len(rows)
        seen[key] = index
        stats = executor.stats
        row: dict = {
            "depth": depth,
            "index": index,
            "operator": _label(executor),
            "executor": type(executor).__name__,
            "shared": key in shared,
            "refcount": shared.get(key),
            "ticks": stats.ticks,
            "input_inserted": stats.input_inserted,
            "input_deleted": stats.input_deleted,
            "output_inserted": stats.output_inserted,
            "output_deleted": stats.output_deleted,
            "repeat": False,
        }
        if isinstance(executor, ScanExec):
            row["rows_scanned"] = stats.rows_scanned
        if isinstance(executor, (InvocationExec, StreamingInvocationExec)):
            row["invocations"] = stats.invocations
            row["memo_hits"] = stats.memo_hits
            row["fast_failed"] = stats.fast_failures
            row["failures"] = stats.failures
        if isinstance(executor, InvocationExec):
            row["pending"] = len(executor._pending)
        rows.append(row)
        for child in executor.children:
            visit(child, depth + 1)

    visit(engine.root, 0)
    return rows


def _format_row(row: dict) -> str:
    indent = "  " * row["depth"]
    if row.get("repeat"):
        return (
            f"{indent}{row['operator']}  [{row['executor']}]"
            f"  (shared node — see #{row['ref']})"
        )
    status = (
        f"shared(refs={row['refcount']})" if row["shared"] else "private"
    )
    parts = [
        f"{indent}#{row['index']} {row['operator']}"
        f"  [{row['executor']}]  {status}",
        f"ticks={row['ticks']}",
        f"in Δ+{row['input_inserted']}/-{row['input_deleted']}",
        f"out Δ+{row['output_inserted']}/-{row['output_deleted']}",
    ]
    if "rows_scanned" in row:
        parts.append(f"scanned={row['rows_scanned']}")
    if "invocations" in row:
        parts.append(
            "invoked={invocations} memo-hit={memo_hits} "
            "fast-failed={fast_failed} failed={failures}".format(**row)
        )
    if "pending" in row:
        parts.append(f"pending={row['pending']}")
    return "  ".join(parts)


def render_analyze(continuous: "ContinuousQuery") -> str:
    """EXPLAIN ANALYZE text for one registered continuous query."""
    rows = analyze_rows(continuous)
    if not rows:
        return (
            "(no physical plan — the naive engine re-evaluates the logical "
            "tree; register with engine='shared')"
        )
    header = [
        f"EXPLAIN ANALYZE {continuous.query.name or '(unnamed query)'}"
        f"  engine={continuous.engine}  last instant="
        f"{continuous._last_instant if continuous._last_instant >= 0 else '(never)'}"
    ]
    summary = continuous.sharing_summary
    header.append(
        f"plan {summary['fingerprint']}: {summary['executors']} executors, "
        f"{summary['shared']} shared / {summary['private']} private"
    )
    return "\n".join(header + [_format_row(row) for row in rows])


def render_physical(
    plan, registry: "SharedPlanRegistry | None" = None
) -> str:
    """The lowered physical plan of a (not yet registered) logical plan:
    executor classes plus shared/private markers against ``registry``.

    The plan is canonicalized (Table 5 normal form — what the shared
    engine executes) and lowered privately; a subtree is marked shared
    when the registry currently holds a live entry for it, i.e. a
    registered query is already running that exact subplan.
    """
    from repro.algebra.fingerprint import canonical_plan
    from repro.exec.lowering import lower

    root = lower(canonical_plan(plan))
    entries = registry._entries if registry is not None else {}
    lines: list[str] = []
    seen: set[int] = set()

    def visit(executor: "Executor", depth: int) -> None:
        indent = "  " * depth
        label = f"[{type(executor).__name__}]"
        if id(executor) in seen:
            lines.append(
                f"{indent}{_label(executor)}  {label}"
                "  (shared node above)"
            )
            return
        seen.add(id(executor))
        entry = entries.get(executor.node)
        status = (
            f"shared(refs={entry.refcount})" if entry is not None else "private"
        )
        lines.append(f"{indent}{_label(executor)}  {label}  {status}")
        for child in executor.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
