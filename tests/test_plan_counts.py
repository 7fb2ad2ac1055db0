"""Work counts of the benchmark's query and graded plans.

Each test builds a seeded plan with the planners of perfbench/workloads.py
in a temporary directory, runs every op once through cli.main in this
process and checks each answer with the plan's own oracle.  The seed-1
passes bound the work they do: products, eliminations and their pivot
steps, flag row profiles, stacked ranks, module checks, computed decisions
and computed module texts.  Counts, unlike times, are free of host noise,
so added work fails here even where the benchmark's timings cannot tell it
from layout.  The sha256 of the answer bytes is pinned too, since the
oracles read only verdicts, types and dims, not the iso witnesses, T3
details, scans or module texts.  Every count is taken by reference.record,
which binds each primitive by identity.  The last test checks that after
cold verify passes and the seed-1 query pass no Hom condition matrix is
left kept on a module.
"""

import hashlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from repcurve import cli, linalg
from repcurve import kmod as km
from repcurve.suites import SUITE_PRIMES, run_suite
from reference import record

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


def _record_work(monkeypatch) -> dict:
    """The recorders of the work primitives; a decision or module text
    read from its memo is no work, so those record the memo's misses; an
    elimination records its pivot steps."""
    return {"products": record(monkeypatch, linalg._matmul_idx),
            "eliminations": record(monkeypatch, linalg._rref_inplace,
                                   lambda args, pivots: len(pivots)),
            "row_profiles": record(monkeypatch, linalg._row_profile),
            "rank_stacks": record(monkeypatch, linalg._rank_stack),
            "checks": record(monkeypatch, km.check_actions),
            "iso_decisions": record(monkeypatch, km.is_isomorphic),
            "indec_decisions": record(monkeypatch, km.is_indecomposable),
            "module_texts": record(monkeypatch, cli._module_text)}


def _op_pass(monkeypatch, tmp_path, workload, seed) -> tuple:
    """The counts of one pass over the plan at seed, after its set-up, and
    the sha256 of its answer bytes in op order."""
    wl = _workloads(monkeypatch)
    plan = wl.make_plan(workload, seed, str(tmp_path), cli)
    argv, check = ((lambda op, out: wl.query_argv(op, str(tmp_path), out), wl.check_query)
                   if workload == "query" else (wl.graded_argv, wl.check_graded))
    work = _record_work(monkeypatch)
    answers = hashlib.sha256()
    out = str(tmp_path / "answer.json")
    for op in plan["ops"]:
        assert cli.main(argv(op, out)) == 0
        with open(out, "rb") as fh:
            text = fh.read()
        assert check(op, json.loads(text)) is None
        answers.update(text)
    counts = {key: len(calls) for key, calls in work.items()}
    counts["pivot_steps"] = sum(work["eliminations"])
    return counts, answers.hexdigest()


@pytest.mark.parametrize("workload,most,answers", [
    # the query pass reads its 129 modules cold from files: 929 products,
    # 152 eliminations of 1,996 pivot steps, 33 flag row profiles, 40
    # stacked ranks, 150 checks (one per module read), 21 computed iso
    # decisions and 30 is_indecomposable calls; it writes no module
    ("query", dict(products=929, eliminations=152, pivot_steps=1996, row_profiles=33,
                   rank_stacks=40, checks=150, iso_decisions=21, indec_decisions=30,
                   module_texts=0),
     "c65d2db3669444d2616d8b04ec18da35198501b00ff82102f16804199f5aefc7"),
    # the graded pass builds 117 families and decides nothing: 139
    # products and 57 checks, 39 of them one per dr build and 18 the first
    # v_d of each (field, beta); it writes each of 395 distinct (piece,
    # indent) texts once
    ("graded", dict(products=139, eliminations=0, pivot_steps=0, row_profiles=0,
                    rank_stacks=0, checks=57, iso_decisions=0, indec_decisions=0,
                    module_texts=395),
     "9daf84c63fcda03c8c3e724c83abdf7d1caac6ff08f97a94f6b87a22c5a3edd5"),
], ids=["query", "graded"])
def test_plan_work_stays_counted(monkeypatch, tmp_path, workload, most, answers):
    counts, digest = _op_pass(monkeypatch, tmp_path, workload, 1)
    over = {key: (counts[key], most[key]) for key in most if counts[key] > most[key]}
    assert not over, over
    assert digest == answers


def test_query_answers_at_seed_7_stay_pinned(monkeypatch, tmp_path):
    # a second plan: other moduli, betas, labels and vectors in the same
    # size classes
    _, digest = _op_pass(monkeypatch, tmp_path, "query", 7)
    assert digest == "c4ce2ba9d74d2e8bc07268b42e2cf70a29e68e264799c327fb3ceb59a15a66f1"


@pytest.mark.parametrize("workload,seed", [("verify", 0), ("verify", 7), ("query", 1)],
                         ids=["verify-0", "verify-7", "query-1"])
def test_no_condition_matrix_outlives_its_decision(monkeypatch, tmp_path, workload, seed):
    # _hom_dims keeps C(M, N) on M for the Hom(M, N) solve of step 5 when
    # the two dims agree; is_isomorphic, its one package caller, then takes
    # it by that solve or drops it on a NO at step 4, so after a cold pass
    # no computed pair still holds its matrix
    pairs = record(monkeypatch, km._hom_dims)
    if workload == "query":
        _op_pass(monkeypatch, tmp_path, workload, seed)
    else:
        assert run_suite("all", SUITE_PRIMES, seed=seed)["exit"] == 0
    kept = [(M, N) for M, N in pairs if ("_hom_conditions", N) in M._cache]
    assert pairs and kept == [], (len(kept), len(pairs))
