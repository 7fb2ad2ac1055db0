"""The package keeps one way to answer each question: a name the README
lists as removed from the package must not come back, every name the
package exports must resolve, and every function the package defines is
reached by the command line or exported."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repcurve
from repcurve import kmod as km
from repcurve.ff import default_ctx

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(repcurve.__file__).resolve().parent
# functions that no command reaches and the package does not export, each
# with the reason it stays; a listed function that is reached, exported or
# gone is taken off the list
UNREACHED = {}


def removed_names() -> list:
    """The names in the first column of the README's "removed from the
    package" table, as "owner.attribute" with any argument list dropped;
    the owner is a repcurve module or a class the package exports."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| removed from the package |"))
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names += [re.sub(r"\(.*", "", code)
                  for code in re.findall(r"`([^`]+)`", line.split("|")[1])]
    return names


def test_removed_table_is_read():
    names = removed_names()
    assert len(names) >= 15
    assert all(re.fullmatch(r"\w+\.\w+", n) for n in names), names
    assert "curvefam.trace_identity_check" in names


@pytest.mark.parametrize("name", removed_names())
def test_removed_name_stays_removed(name):
    # a module owner is imported by name: the package does not import
    # every module (cli), so the case must not rely on an earlier import
    owner, attr = name.split(".")
    if owner in repcurve.__all__:
        owner = getattr(repcurve, owner)
    else:
        owner = importlib.import_module("repcurve." + owner)
    assert not hasattr(owner, attr)


def test_exported_names_resolve():
    missing = [n for n in repcurve.__all__ if not hasattr(repcurve, n)]
    assert missing == []


# Runs the command set in a fresh interpreter that records the code object
# of every Python call from before the package is imported, and prints the
# (file, first line) of each as JSON.  argv: the directory for the files,
# then the module file of v_d(3, 2, t) + trivial + trivial, whose socle has
# dim 3 = p, so query indec takes the stacked charpolys of the radical.
COMMANDS = """
import json, sys
calls = set()
sys.setprofile(lambda frame, event, arg: calls.add(frame.f_code) if event == "call" else None)
from repcurve.cli import main
out, summed = sys.argv[1], sys.argv[2]
f = lambda name: out + "/" + name
runs = [
    ["verify", "all", "--p", "3"],
    ["verify", "identities", "--p", "3", "--format", "md"],
    ["claims"], ["claims", "--format", "json"],
    ["build", "vd", "--p", "3", "--d", "4", "--beta", "0,1", "--modulus", "1,0,1"],
    ["build", "vdr", "--p", "3", "--d", "4", "--beta", "0,1"],
    ["build", "regular", "--p", "3"], ["build", "aug", "--p", "3"],
    ["build", "trivial", "--p", "3"],
    ["build", "holo", "--p", "3", "--m", "4", "--alpha", "0,1"],
    ["build", "dr", "--p", "3", "--m", "4", "--alpha", "0,1"],
    ["query", "iso", f("build-vd"), f("build-vdr")],
    ["query", "indec", summed],
    ["query", "jordan", f("build-vdr")],
    ["query", "profile", f("build-aug")],
    ["query", "ddeg", f("build-vdr"), "--label", "eta1"],
]
codes = [main(argv + ["--out", f("-".join(argv[:2]))]) for argv in runs]
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "calls": sorted({(c.co_filename, c.co_firstlineno) for c in calls})}))
"""


def package_defs() -> list:
    """(file, first line, name, outermost owner) of every def in the
    package, nested defs and methods included.  The first line is that of
    the code object: the first decorator of a decorated def."""
    out = []

    def walk(path, node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                top = owner or child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out.append((str(path), first, name, top))
                walk(path, child, name, top)
            else:
                walk(path, child, prefix, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path, ast.parse(path.read_text()), path.stem, None)
    return out


def exported(stem: str, top: str) -> bool:
    """The outermost owner is the object repcurve exports under its name."""
    if top not in repcurve.__all__:
        return False
    module = repcurve if stem == "__init__" else importlib.import_module(f"repcurve.{stem}")
    return getattr(module, top, None) is getattr(repcurve, top)


def test_package_defs_are_found():
    defs = package_defs()
    names = {name for _, _, name, _ in defs}
    assert {"kmod.HModule.__init__", "kmod.HModule.word_stack.powers",
            "cli.main", "linalg.Subspace.from_rows"} <= names
    first = {name: line for _, line, name, _ in defs}
    # a decorated def starts at its first decorator, as its code object does
    assert first["kmod.binomial_table"] == km.binomial_table.__wrapped__.__code__.co_firstlineno
    assert first["linalg.Mat.rows"] == repcurve.Mat.rows.fget.__code__.co_firstlineno


def test_every_function_is_reached_or_exported(tmp_path):
    ctx = default_ctx(3)
    summed = km.direct_sum(km.direct_sum(km.v_d(ctx, 2, ctx.gen()), km.trivial_module(ctx)),
                           km.trivial_module(ctx))
    assert km.fixed_space(summed).dim == 3
    path = tmp_path / "summed.json"
    path.write_text(json.dumps(km.module_to_json(summed)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", COMMANDS, str(tmp_path), str(path)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(result["codes"])
    reached = {(os.path.realpath(f), line) for f, line in result["calls"]}
    missed = sorted(name for path, line, name, top in package_defs()
                    if (os.path.realpath(path), line) not in reached
                    and not exported(Path(path).stem, top))
    # a listed function that is reached, exported or gone leaves the list
    assert missed == sorted(UNREACHED)
