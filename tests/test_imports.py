"""Every name imported into the library, the scripts and the tests is used
there, and every module-level function, class and assigned name of the
library and the scripts is used somewhere.

Both checks walk syntax trees.  The names an import statement binds must
each appear somewhere else in the module as a name (a bare reference, the
base of an attribute access, a decorator or an annotation).  A definition
(dunder names such as ``__version__`` aside) must be referenced outside its
own body somewhere in src, scripts, tests or bench: as a name, as an
attribute (``module.name``), or as a string (the bench patches library
functions by attribute name).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path for sub in ("src/streamcode", "scripts", "tests")
           for path in sorted((ROOT / sub).glob("*.py"))]
DEFINING = [path for path in MODULES if path.parent.name != "tests"]
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))


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


def references(tree) -> Counter:
    """How often each name is referenced in a syntax tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def defined_names(node) -> list:
    """The names a module-level statement defines, dunder names aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    names = [leaf.id for target in targets for leaf in ast.walk(target)
             if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def dead_definitions(source: str, readers: list) -> list:
    """(line, name) of each module-level function, class or assigned name of
    `source` that no tree in `readers` references outside its own definition."""
    seen = sum((references(tree) for tree in readers), Counter())
    return [(node.lineno, name) for node in ast.parse(source).body
            for name in defined_names(node) if seen[name] == references(node)[name]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    src = "from functools import lru_cache\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(src) == [(1, "lru_cache")]


@pytest.fixture(scope="module")
def reader_trees():
    return [ast.parse(path.read_text()) for path in READERS]


@pytest.mark.parametrize("path", DEFINING, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_definitions(path, reader_trees):
    assert dead_definitions(path.read_text(), reader_trees) == []


def test_dead_definition_is_caught():
    src = ("def used():\n    return 1\n\n"
           "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
           "class Orphan:\n    pass\n\n"
           "def patched():\n    pass\n\n"
           "x = used()\n"
           "__version__ = '1'\n"
           "TABLE: dict = {}\n"
           "LEFT, RIGHT = x, x\n"
           "os.environ['X'] = '1'\n")
    readers = [ast.parse(src), ast.parse("WRAPPED = [(mod, 'patched')]\nLEFT.clear()\n")]
    assert dead_definitions(src, readers) == [(4, "recursive"), (7, "Orphan"),
                                              (15, "TABLE"), (16, "RIGHT")]
