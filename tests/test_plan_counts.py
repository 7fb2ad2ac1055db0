"""Work counts of the benchmark's query and graded plans.

Each test builds the seed-1 plan with the planners of
perfbench/workloads.py in a temporary directory, runs every op once through
cli.main in this process, checks each answer with the plan's own oracle,
and bounds the work the op pass does: products, eliminations and their
pivot steps, flag row profiles, stacked ranks, module checks, computed
decisions and computed module texts.  Counts, unlike times, are free of
host noise, so added work fails here even where the benchmark's timings
cannot tell it from layout.
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from repcurve import cli, linalg, suites
from repcurve import curvefam as cf
from repcurve import kmod as km

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    """perfbench/workloads.py as a module, with no change to sys.path; its
    one import from a sibling, speed.WINDOW, serves run_pass alone, which
    these tests do not call, so a stand-in module answers it."""
    speed = types.ModuleType("speed")
    speed.WINDOW = None
    monkeypatch.setitem(sys.modules, "speed", speed)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_work(monkeypatch) -> dict:
    """Counters of the work primitives, patched at each import site."""
    counts = dict.fromkeys(("products", "eliminations", "pivot_steps", "row_profiles",
                            "rank_stacks", "checks", "iso_decisions",
                            "indec_decisions", "module_texts"), 0)

    def counted(key, real, steps=False):
        def run(*args, **kwargs):
            counts[key] += 1
            out = real(*args, **kwargs)
            if steps:
                counts["pivot_steps"] += len(out)
            return out
        return run

    for key, name, modules in (("products", "_matmul_idx", (linalg, km, suites)),
                               ("row_profiles", "_row_profile", (km,)),
                               ("rank_stacks", "_rank_stack", (linalg, km, suites)),
                               ("checks", "check_actions", (km, cf)),
                               ("indec_decisions", "is_indecomposable", (km,))):
        wrapped = counted(key, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(linalg, "_rref_inplace",
                        counted("eliminations", linalg._rref_inplace, steps=True))
    # a decision or module text read from its memo is no work: count the
    # memo's misses
    for key, name, module in (("iso_decisions", "is_isomorphic", km),
                              ("module_texts", "_module_text", cli)):
        inner = counted(key, getattr(module, name).__wrapped__)
        inner.__name__ = name
        monkeypatch.setattr(module, name, km._memo(inner))
    return counts


def _op_pass_counts(monkeypatch, tmp_path, workload) -> dict:
    """The counts of one pass over the seed-1 plan, after its set-up."""
    wl = _workloads(monkeypatch)
    plan = wl.make_plan(workload, 1, str(tmp_path), cli)
    argv, check = ((lambda op, out: wl.query_argv(op, str(tmp_path), out), wl.check_query)
                   if workload == "query" else (wl.graded_argv, wl.check_graded))
    counts = _count_work(monkeypatch)
    out = str(tmp_path / "answer.json")
    for op in plan["ops"]:
        assert cli.main(argv(op, out)) == 0
        with open(out) as fh:
            assert check(op, json.load(fh)) is None
    return counts


@pytest.mark.parametrize("workload,most", [
    # the query pass reads its 129 modules cold from files: 962 products,
    # 227 eliminations of 2,676 pivot steps, 33 flag row profiles, 40
    # stacked ranks, 150 checks (one per module read), 21 computed iso
    # decisions and 30 is_indecomposable calls; it writes no module
    ("query", dict(products=962, eliminations=227, pivot_steps=2676, row_profiles=33,
                   rank_stacks=40, checks=150, iso_decisions=21, indec_decisions=30,
                   module_texts=0)),
    # the graded pass builds 117 families and decides nothing: 139
    # products and 57 checks, 39 of them one per dr build and 18 the first
    # v_d of each (field, beta); it writes 395 distinct (piece, indent)
    # texts, each once, where each build writing its own pieces made 826
    ("graded", dict(products=139, eliminations=0, pivot_steps=0, row_profiles=0,
                    rank_stacks=0, checks=57, iso_decisions=0, indec_decisions=0,
                    module_texts=395)),
], ids=["query", "graded"])
def test_plan_work_stays_counted(monkeypatch, tmp_path, workload, most):
    counts = _op_pass_counts(monkeypatch, tmp_path, workload)
    over = {key: (counts[key], most[key]) for key in most if counts[key] > most[key]}
    assert not over, over
