"""Acceptance gate: twelve numbered criteria, one printed line each.

Each criterion reruns the relevant verification suite(s) through the same
runner the CLI uses, asserts the expected case population and verdicts,
and enforces the runtime budget.  Output format:
ACCEPTANCE <nn> <name>: PASS|FAIL (<seconds>s) [optional note]
"""

import time
from functools import lru_cache

from repcurve.ff import default_ctx, frobenius
from repcurve.kmod import (case_ii_core, dual, is_isomorphic, v_d, v_dr)
from repcurve.linalg import invert
from repcurve.poly import Poly2, trace_polynomial
from repcurve.suites import run_suite

SEED = 0


@lru_cache(maxsize=None)
def report(suite, p):
    return run_suite(suite, (p,), seed=SEED)


def cases(rep, prefix=""):
    return [c for c in rep["cases"] if c["case"].startswith(prefix)]


def all_pass(rep, prefix=""):
    sel = cases(rep, prefix)
    assert sel, f"no cases under {prefix!r}"
    bad = [c for c in sel if c["verdict"] == "fail"]
    assert not bad, f"failing cases: {[c['case'] for c in bad]}"
    return sel


def crit(n, name, budget, fn):
    t0 = time.perf_counter()
    status, note = "FAIL", ""
    try:
        note = fn() or ""
        status = "PASS"
    finally:
        dt = time.perf_counter() - t0
        if dt >= budget:
            status = "FAIL"
            note = f"over budget {budget}s; " + note
        line = f"ACCEPTANCE {n:02d} {name}: {status} ({dt:.2f}s)"
        if note:
            line += f" [{note}]"
        print(line)
    assert status == "PASS", line
    assert dt < budget


def test_criterion_01_trace_identity():
    def body():
        r3 = report("identities", 3)
        betas3 = all_pass(r3, "identities/p3/trace/")
        assert len(betas3) == 6
        r5 = report("identities", 5)
        betas5 = all_pass(r5, "identities/p5/trace/")
        assert len(betas5) == 20
        return "6 betas at p=3, 20 at p=5"

    crit(1, "trace-identity", 1.0, body)


def test_criterion_02_trace_polynomial():
    def body():
        for p in (3, 5):
            ctx = default_ctx(p, 1)
            y = Poly2.monomial(ctx, 1, 0, 1)
            assert trace_polynomial(p, ctx) == (y ** p - y) ** (p - 1)
            all_pass(report("identities", p), f"identities/p{p}/trace-polynomial")
        return "exact bivariate equality, p=3 and p=5"

    crit(2, "trace-polynomial", 1.0, body)


def test_criterion_03_genus_combinatorics():
    def body():
        n3 = len(all_pass(report("combinatorics", 3)))
        n5 = len(all_pass(report("combinatorics", 5)))
        return f"{n3 + n5} checks over the 9-pair grid"

    crit(3, "genus-combinatorics", 2.0, body)


def test_criterion_04_filtration_degree():
    def body():
        rep = report("filtration", 3)
        sel = all_pass(rep)
        vdr = [c for c in sel if "/vdr" in c["case"]]
        assert len(vdr) == 10 and len(sel) - len(vdr) == 18
        return "dims plus 200 random vectors per member"

    crit(4, "filtration-degree", 5.0, body)


def test_criterion_05_structure_identifications():
    def body():
        all_pass(report("structure", 3))
        all_pass(report("structure", 5))
        # one explicit witness re-verified outside the runner
        C3 = default_ctx(3)
        t = C3.gen()
        A, B = dual(v_dr(C3, 2, t)), v_dr(C3, 6, t)
        dec = is_isomorphic(A, B)
        X = dec.witness
        assert dec.verdict == "YES" and X is not None
        assert X @ A.Msigma == B.Msigma @ X and X @ A.Mtau == B.Mtau @ X
        assert invert(X) is not None
        return "p=3 exhaustive, p=5 spots d in {0,4,5,12,20,24}"

    crit(5, "structure-identifications", 30.0, body)


def test_criterion_06_indecomposability():
    def body():
        r3 = report("indec", 3)
        vd = all_pass(r3, "indec/p3/vd")
        # certificates are part of the case contract: T1 for the w-family,
        # forced T3 for the quotient family
        assert all(c["certificate"] == "T1" for c in vd
                   if "/vdr" not in c["case"])
        vdr = all_pass(r3, "indec/p3/vdr")
        assert len(vdr) == 10 and all(c["certificate"] == "T3" for c in vdr)
        r5 = all_pass(report("indec", 5))
        assert len(r5) == 3
        return "T1 for 9 members, T3 for 10 quotients, p=5 spots {5,12,19}"

    crit(6, "indecomposability", 60.0, body)


def test_criterion_07_classification_w_family():
    def body():
        rep = report("classification", 3)
        vd = all_pass(rep, "classification/p3/vd/")
        noes = [c for c in vd if not c["case"].endswith("-self")]
        selfs = [c for c in vd if c["case"].endswith("-self")]
        assert len(noes) == 90 and len(selfs) == 36
        return "90 distinct-twist NO plus 36 self YES"

    crit(7, "classification-w-family", 30.0, body)


def test_criterion_08_classification_quotients():
    def body():
        vdr3 = all_pass(report("classification", 3), "classification/p3/vdr/")
        assert len(vdr3) == 171  # all unordered pairs of 18 members
        rep5 = report("classification", 5)
        pairs = all_pass(rep5, "classification/p5/vdr/pair")
        assert len(pairs) >= 40
        all_pass(rep5, "classification/p5/vdr/same-class")
        return f"171 pairs at p=3; {len(pairs)} contrapositive pairs at p=5"

    crit(8, "classification-quotients", 180.0, body)


def test_criterion_09_cores():
    def body():
        rep = report("cores", 3)
        vd = all_pass(rep, "cores/p3/vd6") + all_pass(rep, "cores/p3/vd7") \
            + all_pass(rep, "cores/p3/vd8") + all_pass(rep, "cores/p3/vd9")
        assert len(vd) == 8
        gated = [c for c in cases(rep, "cores/p3/vdr")
                 if "boundary" not in c["case"]]
        assert len(gated) == 6 and all(c["verdict"] == "pass" for c in gated)
        boundary = [c for c in cases(rep, "cores/p3/vdr")
                    if "boundary" in c["case"]]
        assert len(boundary) == 8
        for c in boundary:
            assert c["verdict"] == "report-only"
            assert "core-matches-rank-two=YES" in c["certificate"]
        # spot check of the twist outside the runner
        C3 = default_ctx(3)
        t = C3.gen()
        N = v_dr(C3, 5, t)
        core, fixed = case_ii_core(N, N.basis_vector("eta8"))
        assert fixed.dim == 2
        assert is_isomorphic(core, v_d(C3, 2, -frobenius(t))).isomorphic
        return "quotient range gated at 3..5; 6..9 degenerate, reported"

    crit(9, "cores", 5.0, body)


def test_criterion_10_jordan_types():
    def body():
        rep = report("jordan", 3)
        assert len(all_pass(rep, "jordan/p3/vd")) == 19
        survey = cases(rep, "jordan/p3/nonconstant-survey")
        assert len(survey) == 1 and survey[0]["verdict"] == "report-only"
        return f"generic types exact; survey: {survey[0]['certificate']}"

    crit(10, "jordan-types", 10.0, body)


def test_criterion_11_geometric_cross_check():
    def body():
        n = 0
        for suite in ("holo", "dr"):
            for p in (3, 5):
                n += len(all_pass(report(suite, p)))
        # re-verify one stored intertwiner by hand
        from repcurve.curvefam import curve_params, dr_graded
        C3 = default_ctx(3)
        params = curve_params(C3, 10, C3.gen())
        piece = dr_graded(params).piece(4)
        Phi = piece.meta["iso_from_abstract"]
        model = v_dr(C3, piece.meta["d"], params.beta)
        assert Phi @ model.Msigma == piece.Msigma @ Phi
        assert invert(Phi) is not None
        return f"{n} piece identifications, p=3 m in {{2,10}}, p=5 m=26"

    crit(11, "geometric-cross-check", 120.0, body)


def test_criterion_12_hodge_sequence():
    def body():
        rep = report("hodge", 3)
        m10 = all_pass(rep, "hodge/p3/m10/")
        assert len(m10) == 9
        all_pass(rep, "hodge/p3/m02/")
        return "all 9 graded indices at m=10, plus m=2"

    crit(12, "hodge-sequence", 30.0, body)
