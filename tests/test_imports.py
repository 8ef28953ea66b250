"""Every name a module imports is referenced in it.

Covers the library modules (``__init__.py`` re-exports its imports, so it
is left out) and the test files. An unused import hides which library
names a test really exercises.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted(p for p in (TESTS.parent / "src" / "dismantle").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_flags_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n") == [
        "os (line 1)",
        "d (line 2)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
