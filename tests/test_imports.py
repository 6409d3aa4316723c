"""No module of the package imports a name it never reads, or imports
inside a function, and no private helper outlives its last reader.

No linter ships with the test environment, so these scans stand in for one.
For each module under src/ffprog (the re-exporting __init__.py aside) the
first collects the names bound by import statements and fails on any that
no `ast.Name` node in the module references.  Annotations count as reads;
`from __future__` imports are compiler directives and are skipped.  The
second fails on any import statement inside a function body, in every
module: no module of the package needs a deferred import to break a cycle,
so each dependency is stated once, at the top.  The third fails on any
module-level `_private` function or class that no line of the package
reads, by name, attribute or import: a helper left behind when its callers
went.
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


def unread_private_defs(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level _private def or class that no
    Name, Attribute or import outside its own body reads, in any source."""
    defs, reads = [], {}
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                defs.append(((module, i), stmt.name))
            names = reads[module, i] = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
    return sorted(f"{key[0]}:{name}" for key, name in defs
                  if not any(name in names for other, names in reads.items()
                             if other != key))


def test_scan_flags_an_unread_private_def():
    sources = {
        "a.py": ("def _used(): pass\n"
                 "def _shift_identity_rhs(): pass\n"
                 "class _Spare: pass\n"
                 "def public(): return _used()\n"
                 "def _recursive(n): return _recursive(n - 1)\n"),
        "b.py": ("from .a import _imported\n"
                 "import a\n"
                 "x = a._by_attribute\n"),
        "c.py": "def _imported(): pass\ndef _by_attribute(): pass\n",
    }
    assert unread_private_defs(sources) == ["a.py:_Spare", "a.py:_recursive",
                                            "a.py:_shift_identity_rhs"]


def test_every_private_def_is_read_somewhere_in_the_package():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    assert unread_private_defs(sources) == []
