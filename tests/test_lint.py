"""A lint guard for the package, with no linter installed: every import is
used and every local name a function assigns is read, in the package and
in the tests; and in the package no unbounded cache is made outside a
function body, nor a module-level name written into by a function, unless
it is listed below; a module's generators are read only through
HModule.gens; and no module reads the process environment, so each
setting is a command-line option.  The re-exports of __init__.py and
names that start with "_" are exempt from the first two."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repcurve"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
# the module-level unbounded caches, each over a small key space that holds
# no field context: a cache keyed on one would keep every context it saw
# alive (dense tables of up to about 100 MB each at q = 2048), past the
# bound of ff.CTX_CACHE.  A cache made inside a function lives with its call.
UNBOUNDED_CACHES = {"cli._heap_policy", "cli._parser", "ff.find_irreducible"}
# the module-level names a function body writes into, each a store that
# outlives every call: one that took field data would keep each context it
# saw alive, as the bounded cache does not.  ff._CTX_LIVE holds weak values,
# so it keeps nothing alive; values computed from a context or a module
# live in that owner's _cache (kmod._memo).
MODULE_STORES = {"ff._CTX_LIVE"}
MUTATORS = {"clear", "update", "setdefault", "pop", "append", "add"}
# the one-generator views of a module, kept for callers outside the
# package, and the shifted-generator methods gens0() replaced; the package
# reads the stacks HModule.gens and gens0()
GENERATOR_ATTRS = {"Msigma", "Mtau"}
GENERATOR_CALLS = {"sigma0", "tau0"}
# the names of os through which a module reads the process environment
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


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


def _unbounded(node: ast.AST, decorator: bool) -> bool:
    """node makes an unbounded cache: lru_cache(maxsize=None) or
    lru_cache(None), or functools.cache as a decorator or a call."""
    call = isinstance(node, ast.Call)
    fn = node.func if call else node
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if name == "cache":
        return call or decorator
    if name != "lru_cache" or not call:
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def unbounded_caches(name: str, source: str) -> list:
    """Each unbounded cache made outside a function body, as module.function
    for a decorator and module:line otherwise."""
    stem = name[:-len(".py")]
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{stem}.{child.name}" for d in child.decorator_list
                          if _unbounded(d, decorator=True)]
                continue
            if _unbounded(child, decorator=False):
                found.append(f"{stem}:{child.lineno}")
            stack.append(child)
    return sorted(found)


def module_stores(name: str, source: str) -> list:
    """Each module-level name that a function body writes into, by a
    subscript store or delete or a call of one of MUTATORS on it, as
    module.name."""
    stem = name[:-len(".py")]
    tree = ast.parse(source)
    top = {t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
           for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
           if isinstance(t, ast.Name)}
    found = set()
    # each node with whether it lies inside a function
    stack = [(node, False) for node in tree.body]
    while stack:
        node, inside = stack.pop()
        inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.Lambda))
        target = None
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            target = node.func.value
        if inside and isinstance(target, ast.Name) and target.id in top:
            found.add(f"{stem}.{target.id}")
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return sorted(found)


def generator_reads(name: str, source: str) -> list:
    """Each use of an attribute in GENERATOR_ATTRS and each call of a name
    in GENERATOR_CALLS outside the body of class HModule, as module:line
    .attr or module:line name()."""
    stem = name[:-len(".py")]
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "HModule":
                continue
            if isinstance(child, ast.Attribute) and child.attr in GENERATOR_ATTRS:
                found.append(f"{stem}:{child.lineno} .{child.attr}")
            elif isinstance(child, ast.Call):
                fn = child.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if called in GENERATOR_CALLS:
                    found.append(f"{stem}:{child.lineno} {called}()")
            stack.append(child)
    return sorted(found)


def environment_reads(name: str, source: str) -> list:
    """Each use of a name in ENVIRONMENT_NAMES, as an attribute or
    imported from os, as module:line name."""
    stem = name[:-len(".py")]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_NAMES]
    return [f"{stem}:{line} {attr}" for line, attr in sorted(found)]


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
    caches = ("import functools\nfrom functools import lru_cache, cache\n"
              "@lru_cache(maxsize=None)\ndef a(ctx):\n    return ctx\n"
              "@functools.lru_cache(None)\ndef b(ctx):\n    return ctx\n"
              "@cache\ndef c(ctx):\n    return ctx\n"
              "@lru_cache(maxsize=16)\ndef bounded(ctx):\n    return ctx\n"
              "@lru_cache\ndef default_size(ctx):\n    return ctx\n"
              "class K:\n    @functools.cache\n    def m(self):\n        return self\n"
              "wrapped = lru_cache(maxsize=None)(bounded)\n"
              "def run(build):\n    memo = lru_cache(maxsize=None)(build)\n"
              "    @cache\n    def inner(x):\n        return x\n    return memo, inner\n")
    assert unbounded_caches("probe.py", caches) == ["probe.a", "probe.b", "probe.c",
                                                    "probe.m", "probe:22"]
    stores = ("import weakref\nSTORE = {}\nLIVE = weakref.WeakValueDictionary()\n"
              "SEEN: set = set()\nLOG = []\nTABLE = {1: 2}\nSTORE[0] = 1\n"
              "def put(k, v):\n    STORE[k] = v\n    return TABLE[k]\n"
              "def wipe(k):\n    def inner():\n        del LIVE[k]\n    return inner\n"
              "def note(x):\n    TABLE.get(x)\n    LOG.count(x)\n"
              "class K:\n    def m(self):\n        LOG.append(self)\n"
              "f = lambda x: SEEN.add(x)\n")
    assert module_stores("probe.py", stores) == ["probe.LIVE", "probe.LOG", "probe.SEEN",
                                                 "probe.STORE"]
    layout = ("class HModule:\n    def f(self):\n        return self.Msigma, self.sigma0()\n"
              "def g(M):\n    return M.Msigma @ M.Mtau\n"
              "def h(M, Msigma):\n    return M.tau0(), sigma0(M), HModule(M.ctx, Msigma, Msigma)\n")
    assert generator_reads("probe.py", layout) == ["probe:5 .Msigma", "probe:5 .Mtau",
                                                   "probe:7 sigma0()", "probe:7 tau0()"]
    env = ("import os\nfrom os import getenv as ge, path\nA = os.environ.get('X', '0')\n"
           "B = os.getenv('Y')\nC = os.path.join('a', 'b')\nD = os.environ['Z']\n")
    assert environment_reads("probe.py", env) == ["probe:2 getenv", "probe:3 environ",
                                                  "probe:4 getenv", "probe:6 environ"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_import_or_unread_local(path):
    source = path.read_text()
    assert unused_imports(path.name, source) + unread_locals(path.name, source) == []


def test_module_stores_are_listed():
    found = {s for path in SOURCES for s in module_stores(path.name, path.read_text())}
    # a listed store that is gone is taken off the list
    assert found == MODULE_STORES


def test_generators_are_read_through_the_stack():
    """Outside the HModule class body no package code reads .Msigma or
    .Mtau or calls sigma0 or tau0: the generator layout, one (2, d, d)
    stack HModule.gens with its shifted stack gens0(), stays behind the
    one class.  The one exception is the public constructor's parameters,
    HModule(ctx, Msigma, Mtau, ...), which are names, not reads: the
    constructor stacks the two matrices it is given."""
    found = [r for path in SOURCES for r in generator_reads(path.name, path.read_text())]
    assert found == []


def test_unbounded_caches_are_listed():
    found = {c for path in SOURCES for c in unbounded_caches(path.name, path.read_text())}
    # a listed cache that is gone is taken off the list
    assert found == UNBOUNDED_CACHES


def test_no_module_reads_the_environment():
    found = [r for path in SOURCES for r in environment_reads(path.name, path.read_text())]
    assert found == []
