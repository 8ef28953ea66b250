"""Every name a module imports is referenced in it, and every private
function of the library is used by the library.

The import scan covers the library modules (``__init__.py`` re-exports
its imports, so it is left out) and the test files. An unused import
hides which library names a test really exercises. A private function
that only the tests call is test-only code, which belongs in ``tests/``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
LIBRARY = sorted((TESTS.parent / "src" / "dismantle").glob("*.py"))
SOURCES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))


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


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions that no code in ``sources`` names
    outside their own definition, as a name or as an attribute."""
    defined = []
    used = set()
    for source in sources:
        for node in ast.parse(source).body:
            private = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and node.name.startswith("_") and not node.name.startswith("__"))
            if private:
                defined.append(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if not (private and name == node.name):
                    used.add(name)
    return [name for name in defined if name not in used]


def test_private_scan_flags_an_unused_name():
    first = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "def _by_attribute():\n    return 2\n"
        "def __dunder__():\n    return _used()\n"
        "class A:\n    def _method(self):\n        return 3\n"
    )
    second = "from first import _recursive\nimport first\nfirst._by_attribute()\n"
    assert unreferenced_private_functions([first, second]) == ["_recursive"]


def test_private_functions_are_used_by_the_library():
    assert unreferenced_private_functions([p.read_text() for p in LIBRARY]) == []
