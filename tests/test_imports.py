"""No stale imports: every name a `src/qnoise` module or a `tests` file imports is read
in that file, unless its import line says why not with `# noqa: F401` and a reason.
`__future__` imports and the re-exports of `__init__.py` are exempt.  The check parses
the sources with `ast`, so it needs no linter.
"""
import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qnoise"
CHECKED = ([pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
           + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))])
# `# noqa: F401` followed by a reason on the same line.
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def unused_imports(source: str) -> list[str]:
    """The imported names the source never reads, as `line: name`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if not KEPT.search(lines[alias.lineno - 1]):
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", CHECKED)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_a_stale_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import numpy as np",
        "import numpy.linalg",
        "from math import pi, tau",
        "from .presets import PRESETS  # noqa: F401  (read by name from outside)",
        "from .engine import gate  # noqa: F401",
        "x = np.zeros(2) * tau + numpy.linalg.norm([1.0])",
    ])
    assert unused_imports(source) == ["2: os", "5: pi", "7: gate"]
