"""No module of the package imports a name it never reads, or imports
inside a function.

No linter ships with the test environment, so these scans stand in for one.
For each module under src/ffprog (the re-exporting __init__.py aside) the
first collects the names bound by import statements and fails on any that
no `ast.Name` node in the module references.  Annotations count as reads;
`from __future__` imports are compiler directives and are skipped.  The
second fails on any import statement inside a function body, in every
module: no module of the package needs a deferred import to break a cycle,
so each dependency is stated once, at the top.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ffprog"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unread_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(src) == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[int]:
    """Line numbers of the import statements inside function bodies."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_scan_flags_an_import_in_a_function():
    src = ("import os\n"
           "def f():\n"
           "    from a import b\n"
           "    def g():\n"
           "        import c\n"
           "class K:\n"
           "    import d\n"
           "    def m(self):\n"
           "        import e\n")
    assert function_imports(src) == [3, 5, 9]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_the_top(path):
    assert function_imports(path.read_text()) == []
