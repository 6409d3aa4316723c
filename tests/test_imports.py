"""No module of the package imports a name it never reads, or imports
inside a function, and no private helper outlives its last reader; and the
size budget has one home.

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
went.  The last two keep the budget in errors.py: BudgetExceeded is raised
by exactly one function, errors._check_budget, and no other module binds
the budget constant, under its name or by its value 2^24.
"""

import ast
import operator
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


def budget_raisers(sources: dict[str, str]) -> list[str]:
    """`module:function` for each function whose own body raises
    BudgetExceeded (`module:<module>` for a raise outside any function)."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = (child.exc.func if isinstance(child.exc, ast.Call)
                       else child.exc)
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name == "BudgetExceeded":
                    found.add(f"{module}:{owner}")
            visit(child, module, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(found)


_FOLD = {ast.Add: operator.add, ast.Mult: operator.mul,
         ast.LShift: operator.lshift, ast.Pow: operator.pow}


def _folded(node):
    """The integer an expression of int literals and + * << ** denotes."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
        a, b = _folded(node.left), _folded(node.right)
        if a is None or b is None or (
                isinstance(node.op, (ast.LShift, ast.Pow)) and not 0 <= b < 64):
            return None
        return _FOLD[type(node.op)](a, b)
    return None


def budget_bindings(sources: dict[str, str]) -> list[str]:
    """`module:line` for each binding of a name BUDGET or *_BUDGET (assigned
    or imported) and each assignment of the value 2^24, in any module."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            names, value = [], None
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id if isinstance(n, ast.Name) else n.attr
                         for t in targets for n in ast.walk(t)
                         if isinstance(n, (ast.Name, ast.Attribute))]
                value = node.value
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.split(".")[-1] for a in node.names]
            if (any(n == "BUDGET" or n.endswith("_BUDGET") for n in names)
                    or (value is not None and _folded(value) == 1 << 24)):
                found.append(f"{module}:{node.lineno}")
    return found


def test_scan_flags_a_second_budget_raise_and_binding():
    sources = {
        "errors.py": ("BUDGET = 1 << 24\n"
                      "def _check_budget(held):\n"
                      "    if held > BUDGET:\n"
                      "        raise BudgetExceeded(held)\n"),
        "a.py": ("from .errors import BUDGET\n"
                 "CAP = 4096 * 4096\n"
                 "LIMIT = 4096\n"
                 "def f(q):\n"
                 "    def inner():\n"
                 "        raise errors.BudgetExceeded\n"
                 "    raise InvalidRange(q)\n"),
        "b.py": "DEFAULT_BUDGET: int = 16777216\nraise BudgetExceeded()\n",
    }
    assert budget_raisers(sources) == ["a.py:inner", "b.py:<module>",
                                       "errors.py:_check_budget"]
    assert budget_bindings(sources) == ["errors.py:1", "a.py:1", "a.py:2",
                                        "b.py:1"]


def test_budget_exceeded_is_raised_by_one_helper():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    assert budget_raisers(sources) == ["errors.py:_check_budget"]


def test_only_errors_binds_the_budget():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    found = budget_bindings(sources)
    assert len(found) == 1 and found[0].startswith("errors.py:")
