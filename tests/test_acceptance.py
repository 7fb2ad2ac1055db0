"""Acceptance gate: twelve numbered criteria, one printed line each.

Each criterion reruns the relevant verification suite(s) through the same
runner the CLI uses, asserts the expected case population and verdicts,
and enforces the runtime budget.  Output format:
ACCEPTANCE <nn> <name>: PASS|FAIL (<seconds>s) [optional note]

The reports they read are also pinned byte for byte.
"""

import hashlib
import time
from functools import lru_cache

import pytest

from repcurve.ff import default_ctx, frobenius
from repcurve.kmod import (case_ii_core, dual, fixed_space, is_isomorphic, v_d,
                           v_dr, vdr_quotient)
from repcurve.linalg import invert
from repcurve.poly import Poly2, trace_polynomial
from repcurve.suites import SUITE_PRIMES, build_cases, report_to_json, run_suite
from reference import vdr_label_matrix

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
        core = case_ii_core(N, N.basis_vector("eta8"))
        assert fixed_space(N).dim == 2
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
        # re-verify one piece against the paper's quotient by hand
        from repcurve.curvefam import curve_params, dr_graded
        C3 = default_ctx(3)
        params = curve_params(C3, 10, C3.gen())
        piece = dr_graded(params).piece(4)
        Phi = vdr_label_matrix(C3, piece.meta["d"], params.gamma)
        model = vdr_quotient(C3, piece.meta["d"], params.beta)
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


# sha256 of report_to_json for the seed-0 report of every suite x prime
# with cases; a change that only restructures how cases are checked must
# keep every byte
REPORT_DIGESTS = {
    ("identities", 3): "e7989ed9ba983aa2a09d919b37ec0a8f00a871982d5fda3f6f6078f561c7f40e",
    ("identities", 5): "94be5c18fb2c1982fc28361434ec53e0b211d5d495e1e21b940cf3c78b690c70",
    ("combinatorics", 3): "6081fa26ea19cc228eb23f11cb455c8934f9b7cc4fb631fbcf4f452ef6ae53b1",
    ("combinatorics", 5): "aafcd0b593c97073f3489f08ed0daf87925790f3f68b7bfa7ee9c34520bea37c",
    ("filtration", 3): "fd653fea719753b9f497827e39349a43a143643c18f659e2915ffba2213c8213",
    ("filtration", 5): "41835a1967a0f3a67d8d3d4bd9ef5a050974caf764ab2d731d108943c50a44e5",
    ("structure", 3): "81d798daced949a82d44e2ca3239de1eff751a89aca17b72a3714b146e5e1eca",
    ("structure", 5): "ab706d869b937e3124c682bf525dda854d587372a10dd40ba3f6b1952dc95428",
    ("indec", 3): "99df4b2393836a47a155f3c7355d9810e0ca844db7183883c105a8dab7b8a958",
    ("indec", 5): "742a1223d14f403809202da4cb114d52545c068e41e6f94c945cf88d491efe47",
    ("classification", 3): "f2d4ac32c1a3c8b16f24b3c70e793c47a96a1fd33c72e8b3a432a74e9a3b8f53",
    ("classification", 5): "46a30f1c75b0cf484820084753a045e5aceb84feabad79191f5a99234630a8c3",
    ("cores", 3): "c03ee7dd37fc72227cd15883cc2d7e9d9618f33d02217a4958506916518e3587",
    ("jordan", 3): "64e8093898e6b91dd947383872eff5cdf61f63e5b4d180342412c46bbbf44147",
    ("jordan", 5): "5a2132c06c9fcba2adeacfb1abe75e98206ff007cbc46277ab748d3418893869",
    ("holo", 3): "a48641f2dcdf5c905a9eaeae128bf70a5046990ea4a6412640d2a5b7cd00afcb",
    ("holo", 5): "df81d0dde79c04e40208bc57ad0c518a9203e128a386e1a096b3a98447fe9c47",
    ("dr", 3): "453ffbc1b215e421194b606802f1f2524eaff3152e92f208f6d4d8edbd632bb9",
    ("dr", 5): "696035911da959368f171c301b8b5561ec0c3a2bb3acb840dcc0631adb99c4de",
    ("hodge", 3): "80f156ab68a7f5883991b0551d236051834bc7dabe830d2b27e922d41dd7ce77",
}


@pytest.mark.parametrize("suite,p", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(suite, p):
    out = report_to_json(report(suite, p))
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[suite, p]


# sha256 of the sorted seed-0 case ids of every suite x prime with cases,
# one per line: the samples derived from p must give exactly these ids at
# p = 3 and 5
CASE_ID_DIGESTS = {
    ("identities", 3): "399e9a35cb54530297ab60d211c9de11ead939ed25f2779d1e923c2c4bce64bf",
    ("identities", 5): "6b2ac0739e5f8790abf8d74fd7210fa4a90dc04b4c7c516134e1689f2cec131c",
    ("combinatorics", 3): "35f0e5257289a00f35f16a042d33ed5a99802099a044209d5bf4acacbf420f9c",
    ("combinatorics", 5): "e76156db78423f5134e105734c8e4cefa6a7a4f88e4e5dce7716df561223be0f",
    ("filtration", 3): "bfa2b6dec3f7c2d05951fd5c17c46d28a83149301f7d93924da935ea210d6e80",
    ("filtration", 5): "9a1fd65503b94b09f984d8a491c09d5767445e9c30b3d2804ab9b17fd52541b6",
    ("structure", 3): "e76145e4a1a1b57d3c6392ac27ed226e7f3aada5121be671db811841c23d926b",
    ("structure", 5): "4db0d6b487f42d9accef53a5757ca4d132e5a5d68691824ac2665d179684cc32",
    ("indec", 3): "33e54d72254512d0d2730c415dfe20cff6d85aa7d53342c6ea30998829b1e29a",
    ("indec", 5): "f4f53a288804dcd5ebd39fbc3ec74569cd103cf34011703ab517989259a421bd",
    ("classification", 3): "509f328faa65278ce2adc06be5c54158056df76b13c1ee8f66df94b6d10d9455",
    ("classification", 5): "931bc31698f1dba2d5081c205b9d16bd2e9436b5e3fef68aab1c930829c4e0cd",
    ("cores", 3): "754166c510e56b9e983b7fed552364cfa9f6574a653b4b9ed6f6ac6a2eec1e40",
    ("jordan", 3): "0ec349547f06f9554309585a462796d460e9dda6c93fde84245288561a2faa59",
    ("jordan", 5): "da425355621476a9df7b452e93f04777ddcf4c8847074ce40e233835bc40aa58",
    ("holo", 3): "3eaadde80f8575fed72f407257c5b34cb795bb0de209d0a7cd07b3aaa1d2244b",
    ("holo", 5): "6646e137f86e183d1d87dfe8cb0d9b57ef2f6597a1a0dbd66612160ea17578a3",
    ("dr", 3): "6cc5a31828cc215ab9820f131c1432517b65c4301d722e8cade122cbafde46a1",
    ("dr", 5): "527dfd0ba2be190e37b0e376e4f87f7fc07380a4dddbc09a0f1c1d1b063b7b04",
    ("hodge", 3): "0f7214f652d722c02136c227ed8a0e5ef4e04a00f91f072e06946f393cf68a2f",
}


@pytest.mark.parametrize("suite,p", sorted(CASE_ID_DIGESTS))
def test_case_ids_are_pinned(suite, p):
    ids = "\n".join(sorted(cid for cid, _ in build_cases(suite, (p,), SEED)))
    assert hashlib.sha256(ids.encode()).hexdigest() == CASE_ID_DIGESTS[suite, p]


# sha256 of `verify all --seed <seed>` (the report of every suite at both
# primes), for seeds other than the one pinned per suite above: the
# seeded cases draw other modules and vectors
SEEDED_REPORT_DIGESTS = {
    7: "39925f43d0438686ef1635c11e85cc3743a6e96c225edb122d23fec517be1829",
}


@pytest.mark.parametrize("seed", sorted(SEEDED_REPORT_DIGESTS))
def test_seeded_report_bytes_are_pinned(seed):
    out = report_to_json(run_suite("all", SUITE_PRIMES, seed=seed))
    assert hashlib.sha256(out.encode()).hexdigest() == SEEDED_REPORT_DIGESTS[seed]
