"""A lint guard for the package, with no linter installed: every import is
used, and every local name a function assigns is read.  The re-exports of
__init__.py and names that start with "_" are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repcurve"
SOURCES = sorted(PACKAGE.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _reads(tree: ast.AST) -> set:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)} | {
        n.target.id for n in ast.walk(tree)
        if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}


def _own_nodes(fn: ast.AST):
    """The nodes of fn's own scope: nested functions, lambdas and classes
    are left out, comprehensions kept."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(name: str, source: str) -> list:
    if name == "__init__.py":
        return []
    tree = ast.parse(source)
    used = _reads(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound.append((node.lineno, (alias.asname or alias.name).split(".")[0]))
    return [f"{name}:{line} import {imp}" for line, imp in bound
            if not imp.startswith("_") and imp not in used]


def unread_locals(name: str, source: str) -> list:
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        declared = {v for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
                    for v in n.names}
        stored = {}
        for n in own:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
        reads = _reads(fn)
        found += [f"{name}:{line} {fn.name}: {v}" for v, line in stored.items()
                  if not v.startswith("_") and v not in declared and v not in reads]
    return found


def test_every_source_is_checked():
    assert len(SOURCES) >= 8


def test_guard_sees_what_it_guards_against():
    src = ("import os\nfrom typing import Optional\nfrom m import _private\n"
           "def f(p):\n    pp = p * p\n    _x = 1\n    n = 0\n    n += p\n"
           "    def g():\n        return p\n    return g\n")
    assert unused_imports("probe.py", src) == ["probe.py:1 import os",
                                               "probe.py:2 import Optional"]
    assert unread_locals("probe.py", src) == ["probe.py:5 f: pp"]
    assert unused_imports("__init__.py", src) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import_or_unread_local(path):
    source = path.read_text()
    assert unused_imports(path.name, source) + unread_locals(path.name, source) == []
