"""Guard: the engine names, classes and knobs folded into the one
physical engine — and the parked sharded federation's — must not creep
back into code, docs, examples, scripts or CI.

There are two engines (``naive`` and ``shared``), one executor table and
one way to build a PEMS.  Prose may still call the executors
*incremental* or mention the *federation* — only the identifiers and
string literals below are banned.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCANNED = (
    "src",
    "docs",
    "examples",
    "scripts",
    "README.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

BANNED = re.compile(
    r"""IncrementalEngine
      | ["'`]incremental["'`]
      | federated-threads
      | _advance_threads
      | parallelism\s*=\s*["']threads["']
      | ColumnarDelta
      | ValuePool
      | ColumnarExecutor
      | repro\.exec\.vectorized
      | repro\.exec\.columnar
      | COLUMNAR_
      | lowerings_for
      | backend\s*=
      | ["']columnar["']
      | FederatedPEMS
      | repro\.fed
      | federated-processes
      | ["'`]federated["'`]
      | SCENARIO_ENGINES
      | partition_by
      | shards\s*=
      | \.shards
      | explain_federated
      | acquire_subtree
      | insert_validated
    """,
    re.VERBOSE,
)


def scanned_files():
    for entry in SCANNED:
        path = ROOT / entry
        if path.is_file():
            yield path
        else:
            yield from (
                p
                for p in sorted(path.rglob("*"))
                if p.suffix in {".py", ".md", ".yml", ".toml", ".serena"}
            )


def test_removed_engine_names_do_not_reappear():
    offenders = []
    for path in scanned_files():
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if BANNED.search(line):
                offenders.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_engine_module_is_gone():
    for module in ("engine", "vectorized", "columnar"):
        assert not (ROOT / "src" / "repro" / "exec" / f"{module}.py").exists()
    assert not (ROOT / "src" / "repro" / "fed").exists()
