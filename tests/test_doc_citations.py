"""Guard: what the living documents cite must exist.

Every backticked repository path (with or without a ``::test_id``) and
every backticked ``repro.<dotted.name>`` in README.md, DESIGN.md and
docs/TUTORIAL.md has to resolve.  EXPERIMENTS.md, CHANGES.md and
ROADMAP.md are history and are not scanned.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PATH = re.compile(
    r"`((?:src|tests|benchmarks|scripts|examples|docs)/[\w./*-]+)((?:::\w+)*)(?:\[[^`\]]*\])?`"
)
DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")


def resolves(dotted: str) -> bool:
    """A module, or an attribute path below the longest importable prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:]:
                target = getattr(target, part)
        except AttributeError:
            return False
        return True
    return False


def cited(path: str, test_id: str) -> bool:
    """The path (or glob) exists and names every part of ``::Class::test``."""
    if not list(ROOT.glob(path.rstrip("/"))):
        return False
    return all(
        re.search(rf"(def|class) {name}\b", (ROOT / path).read_text())
        for name in test_id.split("::")[1:]
    )


@pytest.mark.parametrize("document", ["README.md", "DESIGN.md", "docs/TUTORIAL.md"])
def test_cited_paths_and_names_exist(document):
    text = (ROOT / document).read_text()
    paths, names = set(PATH.findall(text)), set(DOTTED.findall(text))
    assert paths, f"{document} cites no path — did the pattern rot?"
    dangling = sorted(p + t for p, t in paths if not cited(p, t))
    dangling += sorted(n for n in names if not resolves(n))
    assert not dangling, f"{document} cites what does not exist: {dangling}"
