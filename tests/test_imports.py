"""Every name imported into the library, the scripts and the tests is used there.

A walk over each module's syntax tree: the names an import statement binds
must each appear somewhere else in the module as a name (a bare reference,
the base of an attribute access, a decorator or an annotation).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for sub in ("src/streamcode", "scripts", "tests")
           for path in sorted((ROOT / sub).glob("*.py"))]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    src = "from functools import lru_cache\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(src) == [(1, "lru_cache")]
