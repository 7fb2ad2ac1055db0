"""The package keeps one way to answer each question: a name the README
lists as removed from the package must not come back, every name the
package exports must resolve, and every function the package defines is
reached by the command line, or listed with its reason."""

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
# the functions that no command reaches, each with the reason it stays; a
# listed function that is reached or gone is taken off the list
PERFBENCH = "perfbench/tracer.py or micro.py binds it (tests/test_perfbench_bindings.py)"
FIELD_API = "element arithmetic of the field value types"
POLY_API = "F_q[t] arithmetic of Poly1, which the exact generic Jordan type needs (ROADMAP item 2)"
DUNDER = "value dunder: equality, hash, repr or pickling of a value type"
KEPT = {
    "linalg.rank": PERFBENCH,
    "linalg.Subspace.reduce": PERFBENCH,
    "poly.Poly1.__pow__": PERFBENCH,
    "poly.Poly1.__mul__": PERFBENCH + ", and Poly1.__pow__ multiplies through it",
    "kmod.s_filtration": PERFBENCH + "; it stays until its counters leave perfbench "
                                     "(ROADMAP item 1)",
    "ff.FieldCtx.decode": FIELD_API,
    "ff.FieldCtx.zero": FIELD_API,
    "ff.FieldCtx.one": FIELD_API,
    "ff.FieldCtx.elements": FIELD_API,
    "ff.FieldElem.coeffs": FIELD_API,
    "ff.FieldElem.is_zero": FIELD_API,
    "ff.FieldElem.__sub__": FIELD_API,
    "ff.FieldElem.__rsub__": FIELD_API,
    "ff.FieldElem.__truediv__": FIELD_API,
    "ff.FieldElem.__rtruediv__": FIELD_API,
    "ff.FieldElem.__pow__": FIELD_API,
    "ff.FieldElem.__bool__": FIELD_API,
    "poly.Poly1.zero": POLY_API,
    "poly.Poly1.monomial": POLY_API,
    "poly.Poly1.degree": POLY_API,
    "poly.Poly1.__add__": POLY_API,
    "poly.Poly1.__sub__": POLY_API,
    "poly.Poly2.zero": "the zero of Poly2, whose arithmetic the identities suite reaches",
    "linalg.Mat.from_rows": "the checked entrance of caller rows into a Mat; Mat(ctx, data) "
                            "wraps the package's own arrays unchecked",
    "kmod.HModule.Msigma": "one-generator view for callers outside the package "
                           "(GENERATOR_ATTRS of tests/test_lint.py)",
    "kmod.HModule.Mtau": "one-generator view for callers outside the package "
                         "(GENERATOR_ATTRS of tests/test_lint.py)",
    "kmod.module_to_json": "the inverse of module_from_json, and the byte oracle of "
                           "cli._module_text",
    "ff.alpha_from_beta": "the inverse of beta_from_alpha, which the curve parameters "
                          "of a given beta need (ROADMAP item 7)",
    "linalg.Subspace.zero": "the package takes it for a dim-0 module (_hom_solve, "
                            "hom_space), which no command builds",
    "ff.FieldCtx.__repr__": DUNDER,
    "ff.FieldCtx.__reduce__": DUNDER,
    "ff.FieldElem.__eq__": DUNDER,
    "ff.FieldElem.__hash__": DUNDER,
    "ff.FieldElem.__repr__": DUNDER,
    "kmod.HModule.__repr__": DUNDER,
    "linalg.Mat.__eq__": DUNDER,
    "linalg.Mat.__hash__": DUNDER,
    "linalg.Mat.__repr__": DUNDER,
    "linalg.Subspace.__eq__": DUNDER,
    "linalg.Subspace.__hash__": DUNDER,
    "linalg.Subspace.__repr__": DUNDER,
    "poly.Poly1.__hash__": DUNDER,
    "poly.Poly1.__repr__": DUNDER,
    "poly.Poly2.__hash__": DUNDER,
    "poly.Poly2.__repr__": DUNDER,
}


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
# classification at p = 5 draws the sampled v_dr pairs, which p = 3, where
# every pair runs, does not.
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
    ["verify", "classification", "--p", "5"],
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
    # a refusal: exit 2 with an error record on stderr
    ["query", "indec", f("missing.json")],
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
    """Every def is reached by COMMANDS or listed in KEPT with its reason:
    a name in __all__ gets no exemption, so a second way to ask a question
    fails here until a command reaches it or KEPT names why it stays."""
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
    assert result["codes"] == [0] * (len(result["codes"]) - 1) + [2]
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "RepcurveError"
    reached = {(os.path.realpath(f), line) for f, line in result["calls"]}
    missed = sorted(name for path, line, name, _ in package_defs()
                    if (os.path.realpath(path), line) not in reached)
    # a listed function that is reached or gone leaves the list
    assert missed == sorted(KEPT)
