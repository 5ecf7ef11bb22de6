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


def _shared_refs(registry: "SharedPlanRegistry", node) -> int | None:
    """The refcount of ``registry``'s live entry for ``node``, or None
    when ``node`` runs privately there."""
    from repro.algebra.fingerprint import plan_fingerprint

    if registry.lookup(node) is None:
        return None
    return registry.refcounts()[plan_fingerprint(node)]


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
        refs = _shared_refs(engine.registry, executor.node)
        row: dict = {
            "depth": depth,
            "index": index,
            "operator": _label(executor),
            "executor": type(executor).__name__,
            "shared": refs is not None,
            "refcount": refs,
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
    """The physical plan a registration of ``plan`` builds: executor
    classes plus shared/private markers against ``registry``.

    The plan is acquired from a private registry — the one walk the shared
    engine runs, so an executor reached twice (a subtree repeated in the
    plan) is printed once.  A node is marked shared when ``registry``
    currently holds a live entry for it, i.e. a registered query is
    already running that exact subplan.
    """
    from repro.exec.shared import SharedPlanRegistry
    from repro.model.environment import PervasiveEnvironment

    private = SharedPlanRegistry(
        registry.environment if registry is not None else PervasiveEnvironment()
    )
    root = private.acquire(plan).root
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
        refs = (
            _shared_refs(registry, executor.node)
            if registry is not None
            else None
        )
        status = f"shared(refs={refs})" if refs is not None else "private"
        lines.append(f"{indent}{_label(executor)}  {label}  {status}")
        for child in executor.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
