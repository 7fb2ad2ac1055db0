"""Command line contract: exit codes, JSON shapes, determinism."""

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repcurve
import repcurve.cli as cli
from repcurve import curvefam as cf
from repcurve import ff
from repcurve import kmod as km
from repcurve.cli import BUILD_KINDS, QUERY_KINDS, main
from repcurve.errors import BadParams, RepcurveError
from repcurve.ff import ctx_new, default_ctx, frobenius
from repcurve.linalg import Mat
from repcurve.suites import run_suite

from reference import conjugate, graded_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_vd_shape(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "build", "vd", "--p", "3", "--d", "5",
                     "--beta", "0,1", "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["dim"] == 5
    assert obj["labels"] == ["w0", "w1", "w2", "w3", "w4"]
    assert obj["p"] == 3 and obj["n"] == 2


def test_build_rejects_prime_field_beta(capsys):
    code, out, err = run(capsys, "build", "vd", "--p", "3", "--d", "5",
                         "--beta", "1,0")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "PrimeFieldElement"


def test_build_rejects_malformed_element_text(capsys):
    code, out, err = run(capsys, "build", "vd", "--p", "3", "--d", "5",
                         "--beta", "t")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParams"


@pytest.mark.parametrize("kind,flag,text", [
    ("vd", "--beta", "0,7"), ("vd", "--beta", "0,-1"), ("vdr", "--beta", "3,1"),
    ("dr", "--alpha", "5,1"), ("holo", "--alpha", "0,3")])
def test_build_refuses_out_of_range_digits(capsys, kind, flag, text):
    # at p = 3, "0,7" used to be read as 0,1 and build a module silently
    rest = ["--d", "2"] if flag == "--beta" else ["--m", "4"]
    code, out, err = run(capsys, "build", kind, "--p", "3", *rest, flag, text)
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "BadParams" and repr(text) in rec["message"]


@pytest.mark.parametrize("modulus,coef", [("4,0,1", 4), ("1,0,4", 4), ("-2,0,1", -2)])
def test_build_refuses_out_of_range_modulus(capsys, modulus, coef):
    # at p = 3 each used to be reduced to t^2 + 1 and written as [1, 0, 1]
    code, out, err = run(capsys, "build", "vd", "--p", "3", f"--modulus={modulus}",
                         "--d", "2", "--beta", "0,1")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "BadParams"
    assert f"modulus coefficient {coef} " in rec["message"]


@pytest.mark.parametrize("argv", [
    ("build", "vd", "--p", "3", "--modulus", "1,x,1", "--d", "2", "--beta", "0,1"),
    ("query", "indec", "a.json", "b.json"),
], ids=["modulus-not-integers", "indec-two-files"])
def test_usage_errors_write_one_error_record(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("m", [101, 4000, 10**9])
def test_build_refuses_exponent_above_limit(capsys, m):
    code, out, err = run(capsys, "build", "dr", "--p", "3", "--m", str(m),
                         "--alpha", "0,1")
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "BadParams" and "limit 100" in rec["message"]
    assert cf.MAX_EXPONENT == 100
    assert max(cf.GRID_EXPONENTS) <= cf.MAX_EXPONENT


def test_build_missing_flags(capsys):
    code, _, err = run(capsys, "build", "vd", "--p", "3")
    assert code == 2
    assert "RepcurveError" in json.loads(err)["error"]


def test_build_graded(capsys):
    code, out, _ = run(capsys, "build", "dr", "--p", "3", "--m", "4",
                       "--alpha", "0,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "dr" and len(obj["pieces"]) == 3


@pytest.mark.parametrize("argv,digest", [
    (("build", "dr", "--p", "3", "--m", "10", "--alpha", "0,1"),
     "3de360f99d57dee4e9166ad93383f192541c6503aebf191a217e324b02c72671"),
    (("build", "holo", "--p", "5", "--m", "26", "--alpha", "1,1"),
     "b3f48feb4480ad9e3c47520ded5036ffaac9e00ae24efab553a1bf4d1fa2c6f1"),
    (("build", "vdr", "--p", "5", "--d", "12", "--beta", "0,1"),
     "be97d97187b595fde11fab0e621d45ededc4f240df254ca24d1d589be02829cf"),
    # every dR index set at p = 5, eta rewriting scaled by gamma
    (("build", "dr", "--p", "5", "--m", "99", "--alpha", "0,1"),
     "811a9dbe3c4ca02ee28c55e3c862e449bfccec7dfab06be941f8ac06ce58c6f7"),
    (("build", "holo", "--p", "3", "--m", "100", "--alpha", "2,1"),
     "3a1fcbe288e4799706d5234b0c67e37ac94082dcffae552e3731d92ee775cd2c"),
    # the whole binomial table, at a beta other than t
    (("build", "vd", "--p", "5", "--d", "25", "--beta", "2,3"),
     "c859231df403aee970f6aee7232580ead8de6c51ab7195f7831eb4c89970de5a"),
    (("claims", "--format", "md"),
     "a0544aab1a7ece0f53b5a0aaa3eb7e426709e675353d3973dc3d3d41dac744b8"),
    (("claims", "--format", "json"),
     "3ad28a924a9e9aa0ca4dacde07eecb9cc5b612abd4bef1c4692d339682d59755"),
    # no pieces at all, and the smallest field
    (("build", "holo", "--p", "3", "--m", "1", "--alpha", "0,1"),
     "32e557069ae4cc09c9765ddc74be1c1c8024fb1965c0ac08a8d8011b346cb1bf"),
    (("build", "dr", "--p", "2", "--m", "3", "--alpha", "0,1"),
     "bf130638888d9d244a0d00fc698ef9b216e5bae9dc1af61e0f906fe60c137da5"),
])
def test_build_output_bytes_are_pinned(capsys, argv, digest):
    # serializing from FieldCtx.texts, sharing equal graded pieces, cutting
    # family matrices from one binomial table and encoding each distinct
    # graded piece once are speed-ups only: none may change a byte of build
    # output; the claims table is pinned with them
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_markdown_report_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "verify", "all", "--p", "3", "--format", "md")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d953d444d5414692aa7f8604fa31af81c2fe4413b8cb50767d685bd45292aed7")


@pytest.mark.parametrize("kind,p,n,m,alpha", [
    ("holo", 3, 2, 1, "0,1"),  # "pieces": {}
    ("dr", 5, 2, 1, "1,1"),
    ("holo", 3, 2, 10, "0,1"),  # pieces with dd(c) = 0
    ("holo", 2, 2, 9, "1,1"),  # q = 4
    ("dr", 2, 2, 7, "0,1"),
    ("holo", 3, 3, 7, "0,1,0"),  # an n = 3 field
    ("dr", 3, 3, 7, "0,1,0"),
    ("dr", 7, 2, 8, "0,1"),  # 48-dimensional pieces
    ("holo", 3, 2, 100, "2,1"),  # keys "1", "10", "100"... in string order
    ("dr", 3, 2, 14, "1,2"),
    ("holo", 5, 2, 26, "1,1"),
    ("dr", 5, 2, 12, "0,1"),
])
def test_graded_build_writes_the_reference_bytes(capsys, kind, p, n, m, alpha):
    # the writer writes the frame and each distinct piece's text itself,
    # reusing that text under each of the piece's keys; the reference
    # converts every piece in place and dumps the whole object
    code, out, _ = run(capsys, "build", kind, "--p", str(p), "--n", str(n),
                       "--m", str(m), "--alpha", alpha)
    assert code == 0
    ctx = default_ctx(p, n)
    params = cf.curve_params(ctx, m, ctx.from_text(alpha))
    gm = cf.holo_graded(params) if kind == "holo" else cf.dr_graded(params)
    assert out == json.dumps(graded_to_json(gm), sort_keys=True, indent=2) + "\n"


def _oracle(M) -> str:
    return json.dumps(km.module_to_json(M), sort_keys=True, indent=2) + "\n"


def _from_json(**changes):
    """v_d(3, 3, t) through module_from_json, with changes to its JSON."""
    C3 = default_ctx(3)
    return km.module_from_json({**km.module_to_json(km.v_d(C3, 3, C3.gen())),
                                **changes})


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (3, 2), (5, 2), (2, 3), (7, 2)])
@pytest.mark.parametrize("build", [km.trivial_module, km.regular_module,
                                   km.augmentation_ideal],
                         ids=["trivial", "regular", "aug"])
def test_module_writer_matches_the_json_encoder(build, p, n):
    M = build(default_ctx(p, n))
    assert cli._module_text(M) + "\n" == _oracle(M)


@pytest.mark.parametrize("kind", ["vd", "vdr"])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("beta", ["0,1", "1,1"])
def test_module_writer_matches_the_json_encoder_on_the_family(kind, p, beta):
    ctx = default_ctx(p)
    build, first = (km.v_d, 1) if kind == "vd" else (km.v_dr, 0)
    for d in range(first, p * p + 1):
        M = build(ctx, d, ctx.from_text(beta))
        assert cli._module_text(M) + "\n" == _oracle(M), d


@pytest.mark.parametrize("M", [
    lambda: _from_json(dim=0, sigma=[], tau=[], labels=[]),
    lambda: _from_json(labels=None),
    lambda: _from_json(labels=['say "w"', "back\\slash\ttab", "caf\u00e9 \u2603"]),
    lambda: cf.holo_graded(cf.curve_params(default_ctx(3), 10, default_ctx(3).gen())).piece(9),
], ids=["dim-0", "unlabeled", "escaped-labels", "zero-piece"])
def test_module_writer_matches_the_json_encoder_on_edge_cases(M):
    M = M()
    assert cli._module_text(M) + "\n" == _oracle(M)


# label characters the JSON encoder escapes or must pass through whole:
# quotes, backslashes, control characters, the JS line separators and
# characters beyond the basic plane
LABEL_CHARS = st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\U0001f600\U0010ffff'),
                        st.characters())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(LABEL_CHARS, max_size=6), min_size=3, max_size=3, unique=True))
def test_module_writer_matches_the_json_encoder_on_any_labels(labels):
    M = _from_json(labels=labels)
    assert cli._module_text(M) + "\n" == _oracle(M)
    assert cli._module_text(M, "    ") == _oracle(M)[:-1].replace("\n", "\n    ")


@pytest.mark.parametrize("first", ["vd", "holo"])
def test_a_shared_member_is_written_at_each_indent(capsys, first):
    # the writer keeps a module's text per indent: one v_d member is
    # written alone at indent "" and as a holo piece at "    ", in either
    # order, over a field whose modules no other test writes
    p, modulus, m = (3, (2, 1, 1), 10) if first == "vd" else (5, (2, 1, 1), 26)
    ctx = ctx_new(p, 2, modulus)
    params = cf.curve_params(ctx, m, ctx.gen())
    gm = cf.holo_graded(params)
    member = gm.piece(1)
    assert member is km.v_d(ctx, member.dim, params.beta)
    field = ["--p", str(p), "--modulus", ",".join(map(str, modulus))]
    argv = {"vd": ["build", "vd", *field, "--d", str(member.dim),
                   "--beta", params.beta.text()],
            "holo": ["build", "holo", *field, "--m", str(m), "--alpha", "0,1"]}
    want = {"vd": _oracle(member),
            "holo": json.dumps(graded_to_json(gm), sort_keys=True, indent=2) + "\n"}
    for kind in (first, "holo" if first == "vd" else "vd") * 2:
        code, out, _ = run(capsys, *argv[kind])
        assert code == 0 and out == want[kind], kind


def test_repeated_graded_builds_write_the_same_bytes(capsys):
    # every (kind, m, alpha) at p = 3, twice in one process: the second
    # pass reads every shared piece's kept text, and each output equals
    # the JSON encoder's, m = 1 (no pieces) included
    ctx = default_ctx(3)
    builds = [(kind, m, alpha) for kind in ("holo", "dr")
              for m in range(1, cf.MAX_EXPONENT + 1) if m % 3
              for alpha in ff.enumerate_nonprime(ctx)]
    assert len(builds) == 804
    passes = []
    for _ in range(2):
        outs = []
        for kind, m, alpha in builds:
            assert cli.main(["build", kind, "--p", "3", "--m", str(m),
                             "--alpha", alpha.text()]) == 0
            outs.append(capsys.readouterr().out)
        passes.append(outs)
    assert passes[0] == passes[1]
    for (kind, m, alpha), out in zip(builds, passes[0]):
        params = cf.curve_params(ctx, m, alpha)
        gm = cf.holo_graded(params) if kind == "holo" else cf.dr_graded(params)
        assert out == json.dumps(graded_to_json(gm), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind,p,m", [("holo", 3, 1), ("holo", 3, 10), ("dr", 3, 14),
                                      ("holo", 5, 26), ("dr", 5, 12)])
def test_graded_writer_matches_the_json_encoder(kind, p, m):
    ctx = default_ctx(p)
    params = cf.curve_params(ctx, m, ctx.gen())
    gm = cf.holo_graded(params) if kind == "holo" else cf.dr_graded(params)
    # each piece sits two levels down in the frame
    for mod in gm.pieces.values():
        assert cli._module_text(mod, "    ") == _oracle(mod)[:-1].replace("\n", "\n    ")
    assert cli._dump_graded(gm) == json.dumps(graded_to_json(gm), sort_keys=True,
                                              indent=2) + "\n"


def test_writing_a_module_pins_no_field_context(capsys, tmp_path):
    # the writer reads ctx.texts and keeps only the text on the module: a
    # context nobody holds is freed once the bounded context cache lets it go
    ctx = ctx_new(7, 2, (3, 1, 1))
    ref = weakref.ref(ctx)
    cli._module_text(km.regular_module(ctx))
    out = tmp_path / "aug.json"
    code, _, _ = run(capsys, "build", "aug", "--p", "7", "--modulus", "3,1,1",
                     "--out", str(out))
    assert code == 0 and out.read_text() == _oracle(km.augmentation_ideal(ctx))
    del ctx
    ff._ctx_cached.cache_clear()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv", [
    ("vd", "--p", "3", "--d", "2", "--beta", "0,1", "--m", "5"),
    ("vdr", "--p", "3", "--d", "2", "--beta", "0,1", "--alpha", "0,1"),
    ("dr", "--p", "3", "--m", "4", "--alpha", "0,1", "--d", "7"),
    ("holo", "--p", "3", "--m", "4", "--alpha", "0,1", "--beta", "0,1"),
    ("regular", "--p", "3", "--beta", "0,1"),
    ("aug", "--p", "3", "--m", "4"),
    ("trivial", "--p", "3", "--d", "1", "--alpha", "0,1"),
])
def test_build_refuses_flags_it_would_ignore(capsys, argv):
    code, out, err = run(capsys, "build", *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParams"


@pytest.mark.parametrize("kind,module,name,flags", [
    # the p^2 member: v_d(4) would call v_d(9) itself
    ("vd", km, "v_d", ("--d", "9", "--beta", "0,1")),
    # the least d of its class: v_dr(4) would call v_dr(3) itself
    ("vdr", km, "v_dr", ("--d", "3", "--beta", "0,1")),
    ("regular", km, "regular_module", ()),
    ("aug", km, "augmentation_ideal", ()),
    ("trivial", km, "trivial_module", ()),
    ("holo", cf, "holo_graded", ("--m", "4", "--alpha", "0,1")),
    ("dr", cf, "dr_graded", ("--m", "4", "--alpha", "0,1")),
])
def test_build_calls_its_builder_through_the_module(monkeypatch, capsys,
                                                     kind, module, name, flags):
    # the per-layer tracer rebinds module attributes: a builder captured
    # at import would run unwrapped and read as zero calls
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "build", kind, "--p", "3", *flags)
    assert code == 0 and len(calls) == 1
    assert BUILD_KINDS == ("vd", "vdr", "regular", "aug", "trivial", "holo", "dr")


def test_main_calls_share_no_state(monkeypatch, capsys, tmp_path):
    """The parser is built once per process: flags of one call must not
    reach the next."""
    import repcurve.cli as cli

    v = tmp_path / "v.json"
    argv = ("build", "vdr", "--p", "3", "--d", "3", "--beta", "0,1")
    code, out, _ = run(capsys, *argv, "--out", str(v))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == v.read_text()

    # --label of one query must not reach the next, which would refuse it
    code, out, _ = run(capsys, "query", "ddeg", str(v), "--label", "w2")
    assert code == 0 and json.loads(out)["input"] == "w2"
    code, out, _ = run(capsys, "query", "indec", str(v))
    assert code == 0 and json.loads(out)["certificate"] == "T3"

    primes = []

    def fake_run_suite(suite, p_values, **k):
        primes.append(p_values)
        return {"exit": 0}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    monkeypatch.setattr(cli, "report_to_json", lambda report: "")
    assert run(capsys, "verify", "all", "--p", "3")[0] == 0
    assert run(capsys, "verify", "all")[0] == 0
    assert primes == [(3,), (3, 5)]


def test_query_iso_yes_with_witness(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "4", "--beta", "0,1",
        "--out", str(a))
    code, out, _ = run(capsys, "query", "iso", str(a), str(a))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "YES"
    assert obj["witness"]["rows"] == obj["witness"]["cols"] == 4


def test_query_iso_no(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "5", "--beta", "0,1",
        "--out", str(a))
    run(capsys, "build", "vd", "--p", "3", "--d", "5", "--beta", "1,1",
        "--out", str(b))
    code, out, _ = run(capsys, "query", "iso", str(a), str(b))
    assert code == 0  # a NO verdict is a successful query
    assert json.loads(out)["verdict"] == "NO"


def test_query_indec_forced_tier(capsys, tmp_path):
    # the quotient member's socle has dim 2, so T1 cannot answer and its
    # local End/J forces T3
    v = tmp_path / "v.json"
    run(capsys, "build", "vdr", "--p", "3", "--d", "3", "--beta", "0,1",
        "--out", str(v))
    code, out, _ = run(capsys, "query", "indec", str(v))
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "INDECOMPOSABLE" and obj["certificate"] == "T3"


def test_query_jordan_table(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "5", "--beta", "0,1",
        "--out", str(a))
    code, out, _ = run(capsys, "query", "jordan", str(a))
    assert code == 0
    obj = json.loads(out)
    assert obj["generic"] == [3, 2]
    assert len(obj["scan"]) == 10
    assert obj["constant"] is False
    assert {"point": ["1,0", "0,1"], "type": [2, 2, 1]} in obj["scan"]


def test_query_ddeg_label_and_vector(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "9", "--beta", "0,1",
        "--out", str(a))
    code, out, _ = run(capsys, "query", "ddeg", str(a), "--label", "w8")
    assert code == 0 and json.loads(out)["ddeg"] == 4
    code, out, _ = run(capsys, "query", "ddeg", str(a), "--vector",
                       "1,0;0,0;0,0;0,0;0,0;0,0;0,0;0,0;0,0")
    assert code == 0 and json.loads(out)["ddeg"] == 0
    code, _, err = run(capsys, "query", "ddeg", str(a))
    assert code == 2


@pytest.mark.parametrize("parts", [3, 5])
def test_query_ddeg_vector_of_wrong_length(capsys, tmp_path, parts):
    a = tmp_path / "a.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "4", "--beta", "0,1", "--out", str(a))
    code, out, err = run(capsys, "query", "ddeg", str(a), "--vector", ";".join(["1,0"] * parts))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ShapeMismatch",
                               "message": f"vector has {parts} components, module has dim 4"}


def test_query_ddeg_reads_an_empty_vector_as_no_components(capsys, tmp_path):
    # --vector '' is the zero vector of a dim-0 module, and too short for
    # any other
    ctx = default_ctx(3)
    zero = tmp_path / "zero.json"
    z = Mat.zeros(ctx, 0, 0)
    zero.write_text(json.dumps(km.module_to_json(km.HModule(ctx, z, z))))
    code, out, _ = run(capsys, "query", "ddeg", str(zero), "--vector", "")
    assert code == 0 and json.loads(out) == {"input": "", "ddeg": -1}
    a = tmp_path / "a.json"
    run(capsys, "build", "vd", "--p", "3", "--d", "4", "--beta", "0,1", "--out", str(a))
    code, out, err = run(capsys, "query", "ddeg", str(a), "--vector", "")
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == "vector has 0 components, module has dim 4"


def test_query_answers_with_witnesses_are_pinned(capsys, tmp_path):
    # every witness product and split reads the generators; these bytes
    # hold the iso witnesses, a T2 split and a Jordan scan fixed
    C3, C5 = default_ctx(3), default_ctx(5)
    t3, t5 = C3.gen(), C5.gen()
    vd2, one = km.v_d(C3, 2, t3), km.trivial_module(C3)
    vdr = km.v_dr(C3, 4, t3)
    queries = [
        ("iso", [km.direct_sum(vd2, one),
                 conjugate(km.direct_sum(one, vd2), random.Random(1))],
         "krull-schmidt",
         "f2b300057cff7e45772d6b074d11c335e3278674afbb06d68fd231fd238e6f6f"),
        ("iso", [km.dual(vdr), vdr], "hom-basis",
         "016e3b102ea46d2858e7a19fbe539b827e2d06e569bb8be4be69b1dffbbec25c"),
        ("indec", [km.direct_sum(vd2, one)], "T2",
         "c006d3c78d7e50f430813f9cf3899691b181a0039ce55b6e6cc3ecb08298fe10"),
        ("jordan", [km.v_dr(C5, 12, t5)], None,
         "b415322dbb4d6a6cf4e0d69c722e89d82a6044e44763c5dedc176843dad73de6"),
    ]
    for k, (kind, mods, method, digest) in enumerate(queries):
        paths = []
        for j, M in enumerate(mods):
            paths.append(tmp_path / f"{k}{j}.json")
            paths[-1].write_text(cli._module_text(M) + "\n")
        code, out, _ = run(capsys, "query", kind, *map(str, paths))
        obj = json.loads(out)
        assert code == 0 and obj.get("method", obj.get("certificate")) == method
        assert "witness" in obj or kind != "iso"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, kind


class _Libc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_heap_policy_is_set_once_per_process(monkeypatch, capsys):
    libc = _Libc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._heap_policy.cache_clear()
    try:
        assert run(capsys, "claims")[0] == 0
        assert run(capsys, "claims", "--format", "json")[0] == 0
    finally:
        cli._heap_policy.cache_clear()
    # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_without_mallopt(monkeypatch, capsys, tmp_path, cdll):
    """Without glibc's mallopt the heap policy does nothing: exit codes and
    output bytes are those of a run with it."""
    a = tmp_path / "a.json"
    calls = [("build", "vdr", "--p", "3", "--d", "5", "--beta", "0,1", "--out", str(a)),
             ("query", "indec", str(a)), ("query", "iso", str(a), str(a)),
             ("query", "ddeg", str(a), "--vector", "1,0"),
             ("verify", "structure", "--p", "3"), ("claims",), ("verify", "nope")]

    def outputs():
        return [run(capsys, *argv) for argv in calls]

    with_policy = outputs()
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._heap_policy.cache_clear()
    try:
        without = outputs()
    finally:
        cli._heap_policy.cache_clear()
    assert [c for c, _, _ in with_policy] == [0, 0, 0, 2, 0, 0, 2]
    assert without == with_policy


def test_queries_on_a_zero_dimensional_module(capsys, tmp_path):
    # the Jordan type of each of the q + 1 scanned points is empty, and a
    # decision refuses the module
    ctx = default_ctx(3)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(km.module_to_json(
        km.HModule(ctx, Mat.zeros(ctx, 0, 0), Mat.zeros(ctx, 0, 0)))))
    code, out, _ = run(capsys, "query", "jordan", str(zero))
    ans = json.loads(out)
    assert code == 0 and ans["generic"] == [] and ans["constant"] is True
    assert [point["type"] for point in ans["scan"]] == [[]] * (ctx.q + 1)
    assert run(capsys, "query", "profile", str(zero))[0] == 0
    code, out, _ = run(capsys, "query", "iso", str(zero), str(zero))
    ans = json.loads(out)
    assert code == 0 and (ans["verdict"], ans["method"]) == ("YES", "equal-matrices")
    code, out, err = run(capsys, "query", "indec", str(zero))
    assert code == 2 and out == "" and json.loads(err)["error"] == "BadDimension"


def test_query_bad_file(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "query", "profile", str(missing))
    assert code == 2
    assert "cannot read" in json.loads(err)["message"]


@pytest.mark.parametrize("data", [b"\xff\xfe\x00garbage", b"1" * 5000],
                         ids=["not-utf8", "huge-integer"])
def test_query_file_that_does_not_decode(capsys, tmp_path, data):
    # both used to escape json.load as a ValueError and exit 3
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run(capsys, "query", "profile", str(bad))
    assert code == 2 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "RepcurveError" and "is not valid JSON" in rec["message"]


@pytest.mark.parametrize("count", [1, 3])
def test_query_iso_counts_files_before_reading(monkeypatch, capsys, tmp_path, count):
    import repcurve.cli as cli
    opened = []
    monkeypatch.setattr(cli, "_load_module", opened.append)
    paths = [str(tmp_path / f"missing{i}.json") for i in range(count)]
    code, out, err = run(capsys, "query", "iso", *paths)
    assert code == 2 and out == "" and opened == []
    assert "exactly two module files" in json.loads(err)["message"]


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--p", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"]["fail"] == 0
    assert len(rep["cases"]) == 7  # one polynomial case plus one per beta
    assert rep["artifact_version"]


def test_verify_determinism(capsys):
    args = ("verify", "combinatorics", "--p", "3", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("value", ["7", "abc"])
def test_verify_seed_is_the_flag_alone(monkeypatch, capsys, value):
    # no environment variable sets the seed: it is --seed, 0 by default
    _, seed0, _ = run(capsys, "verify", "combinatorics", "--p", "3", "--seed", "0")
    monkeypatch.setenv("REPCURVE_SEED", value)
    assert run(capsys, "verify", "combinatorics", "--p", "3") == (0, seed0, "")


def test_verify_md_rows_match_json(capsys):
    _, out_json, _ = run(capsys, "verify", "hodge", "--p", "3")
    _, out_md, _ = run(capsys, "verify", "hodge", "--p", "3", "--format", "md")
    rep = json.loads(out_json)
    rows = [l for l in out_md.splitlines() if l.startswith("| hodge")]
    assert len(rows) == len(rep["cases"])
    for row, case in zip(rows, rep["cases"]):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == case["case"] and cells[1] == case["verdict"]


@pytest.mark.parametrize("suite", ["hodge", "dr"])
def test_a_graded_suite_alone_prints_its_rows_of_verify_all(capsys, suite):
    # both read the p = 3 de Rham families kept on the field context: run
    # alone, the suite builds them itself, and verify all then reads them
    def rows(name):
        code, out, _ = run(capsys, "verify", name, "--p", "3", "--format", "md")
        assert code == 0
        return [line for line in out.splitlines() if line.startswith(f"| {suite}/")]

    alone = rows(suite)
    assert alone and alone == rows("all")


def test_verify_failure_exits_one(monkeypatch, capsys):
    import repcurve.cli as cli

    def fake_run_suite(*a, **k):
        return {"suite": "x", "p_values": [3], "grid": [], "seed": 0,
                "artifact_version": "0",
                "cases": [{"case": "x/1", "verdict": "fail",
                           "certificate": "boom", "ms": None}],
                "counts": {"pass": 0, "fail": 1, "report-only": 0},
                "exit": 1}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, _, _ = run(capsys, "verify", "identities")
    assert code == 1


def test_crashing_case_fails_alone(monkeypatch):
    import repcurve.suites as suites

    real = suites.build_cases

    def with_crash(*a, **k):
        def boom(_s):
            raise AssertionError("broken invariant")
        cases = real(*a, **k)
        return [(cid, boom if i == 1 else fn) for i, (cid, fn) in enumerate(cases)]

    monkeypatch.setattr(suites, "build_cases", with_crash)
    rep = suites.run_suite("identities", (3,))
    crashed = rep["cases"][1]
    assert crashed["verdict"] == "fail"
    assert crashed["certificate"] == "error:AssertionError:broken invariant"
    assert rep["counts"]["fail"] == 1
    assert rep["counts"]["pass"] == len(rep["cases"]) - 1
    assert rep["exit"] == 1


def test_sampled_classification_ids_name_their_prime():
    import repcurve.suites as suites

    ids = [cid for cid, _ in suites._suite_classification(7, 0)]
    assert ids and all(cid.startswith("classification/p7/") for cid in ids)


def _failed(rep):
    return [c["case"] for c in rep["cases"] if c["verdict"] == "fail"]


@pytest.mark.parametrize("p", [3, 5])
def test_filtration_suite_sees_low_label_degrees(monkeypatch, p):
    # drop the top-digit term of eta_i with p | i: the 200 random vectors
    # of each case all have a higher label on their support, so only the
    # basis vectors see it
    real = km.label_degrees

    def without_top_digit(M):
        out = real(M).copy()
        for k, lab in enumerate(M.labels):
            if lab.startswith("eta") and int(lab[3:]) % p == 0:
                out[k] = km.s_p(int(lab[3:]), p) - 1
        return out

    monkeypatch.setattr(km, "label_degrees", without_top_digit)
    rep = run_suite("filtration", (p,), 0)
    assert rep["exit"] == 1
    assert all(cid.endswith("/ddeg-prime") for cid in _failed(rep))


@pytest.mark.parametrize("p", [3, 5])
def test_dr_suite_sees_a_wrong_gamma(monkeypatch, p):
    # the pieces no longer check themselves when built: the suite's
    # comparison with the paper's quotient must catch a piece built with
    # gamma = 1 in place of the curve's gamma
    real = cf.dr_action
    monkeypatch.setattr(cf, "dr_action",
                        lambda ctx, d, beta, gamma: real(ctx, d, beta, ctx.el(1)))
    rep = run_suite("dr", (p,), 0)
    assert rep["exit"] == 1
    assert _failed(rep) and all("/c" in cid for cid in _failed(rep))


@pytest.mark.parametrize("p", [3, 5])
def test_holo_suite_sees_a_frobenius_twisted_table(monkeypatch, capsys, p):
    # every holomorphic piece is the shared v_d and every de Rham piece is
    # cut from the binomial table: with the table built at beta^p in place
    # of beta, piece and v_d agree, so only the comparisons of holo, hodge
    # and dr with the definition of v_d (kmod.vd_definition) can catch it;
    # hodge runs at p = 3 only.  sigma does not depend on beta, so only
    # the tau half of each stacked comparison sees the twist: every piece
    # whose tau reads beta fails, all but those of dim 0 and 1 for holo
    real = km.binomial_table
    monkeypatch.setattr(km, "binomial_table", lambda ctx, beta: real(ctx, frobenius(beta)))
    want = {"holo": 8, "hodge": 10, "dr": 10} if p == 3 else {"holo": 23, "dr": 25}
    for suite, count in want.items():
        code, out, _ = run(capsys, "verify", suite, "--p", str(p))
        assert code == 1, suite
        failed = _failed(json.loads(out))
        assert len(failed) == count and all("/c" in cid for cid in failed), suite


def test_verify_usage_error(capsys):
    code = main(["verify", "nosuch"])
    assert code == 2


def test_verify_has_no_jobs_option(capsys):
    assert main(["verify", "identities", "--p", "3", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("query", "iso", "a.json", "b.json", "--seed", "0"),
    ("query", "indec", "a.json", "--trials", "64"),
    ("verify", "identities", "--p", "3", "--trials", "64")])
def test_decision_trial_options_are_gone(capsys, argv):
    # no decision draws at random, so there is no seed or trial count
    # to give it; verify --seed stays, as it seeds the test data
    assert main(list(argv)) == 2
    assert argv[-2] in capsys.readouterr().err


def test_timings_opt_in(capsys):
    _, out, _ = run(capsys, "verify", "identities", "--p", "3", "--timings")
    rep = json.loads(out)
    assert all(isinstance(c["ms"], float) for c in rep["cases"])
    _, out, _ = run(capsys, "verify", "identities", "--p", "3")
    assert all(c["ms"] is None for c in json.loads(out)["cases"])


def test_claims_formats(capsys):
    code, out, _ = run(capsys, "claims")
    assert code == 0 and out.startswith("| suite |")
    code, out, _ = run(capsys, "claims", "--format", "json")
    rows = json.loads(out)
    assert {r["suite"] for r in rows} >= {"identities", "cores", "hodge"}


def test_console_script_entrypoint():
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(repcurve.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "repcurve.cli", "--version"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


@pytest.mark.parametrize("argv,code", [(("--version",), 0),
                                       (("verify", "nosuch"), 2)])
def test_package_runs_as_a_module(argv, code):
    # python -m repcurve, from the package this process imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(repcurve.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "repcurve", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout.strip() == repcurve.__version__


def test_public_names_resolve_and_version_matches_pyproject():
    assert all(hasattr(repcurve, name) for name in repcurve.__all__)
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == repcurve.__version__


def _module_obj(capsys):
    code, out, _ = run(capsys, "build", "vd", "--p", "3", "--d", "2", "--beta", "0,1")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("mutate", [
    lambda o: {"p": 3},
    lambda o: [o],
    lambda o: {**o, "dim": "2"},
    lambda o: {**o, "p": True},
    lambda o: {**o, "modulus": "1,0,1"},
    lambda o: {**o, "sigma": [[1, 0], [0, 1]]},
    lambda o: {**o, "tau": o["tau"][:1]},
    lambda o: {**o, "labels": [0, 1]},
    lambda o: {**o, "n": 1},
    lambda o: {**o, "modulus": [7, 3, 1]},
    lambda o: {**o, "labels": ["w0", "w0"]},
    lambda o: {**o, "labels": []},
])
def test_malformed_module_json_is_an_input_error(capsys, tmp_path, mutate):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(_module_obj(capsys))))
    code, out, err = run(capsys, "query", "indec", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] != "InternalError"


def test_build_regular_labels_are_distinct(capsys, tmp_path):
    # g<a><b> pads a and b to one width; at p = 13 (1, 10) and (11, 0)
    # were both g110, and query ddeg --label answered for the first
    code, out, _ = run(capsys, "build", "regular", "--p", "13", "--n", "1")
    assert code == 0
    labels = json.loads(out)["labels"]
    assert len(labels) == 169 == len(set(labels))
    path = tmp_path / "reg.json"
    path.write_text(out)
    code, out, _ = run(capsys, "query", "ddeg", str(path), "--label", "g1100")
    assert code == 0 and json.loads(out)["ddeg"] == 24


@pytest.mark.parametrize("kind", ["regular", "aug"])
def test_build_refuses_a_regular_module_past_the_table_limit(capsys, kind):
    # F_2039 is below the field limit of 2048, but its regular module has
    # dimension 2039^2: it is refused before the Kronecker products, which
    # would need 126 TiB
    code, out, err = run(capsys, "build", kind, "--p", "2039", "--n", "1")
    # drop the 160 MB of F_2039's tables, which no later test needs
    ff._ctx_cached.cache_clear()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "BadDimension"


def test_empty_label_list_loads_at_dim_0():
    # [] is a label for each of no basis vectors; at dim >= 1 it is refused
    # as the wrong label count (test_malformed_module_json_is_an_input_error)
    C3 = default_ctx(3)
    obj = {**km.module_to_json(km.v_d(C3, 2, C3.gen())),
           "dim": 0, "sigma": [], "tau": [], "labels": []}
    M = km.module_from_json(obj)
    assert M.dim == 0 and M.labels is None


def test_module_json_reports_its_first_bad_entry():
    C3 = default_ctx(3)
    obj = km.module_to_json(km.v_d(C3, 2, C3.gen()))
    obj["tau"][0][0] = "9"
    obj["sigma"][1][0] = "0,7"
    with pytest.raises(BadParams, match="'0,7'"):
        km.module_from_json(obj)


def test_internal_error_exits_three(monkeypatch, capsys, tmp_path):
    import repcurve.cli as cli

    def broken(M):
        raise KeyError("lost")

    m = tmp_path / "m.json"
    m.write_text(json.dumps(_module_obj(capsys)))
    monkeypatch.setattr(cli.km, "profile", broken)
    code, out, err = run(capsys, "query", "profile", str(m))
    assert code == 3 and out == ""
    rec = json.loads(err)
    assert rec["error"] == "InternalError" and rec["type"] == "KeyError"
    assert rec["where"].startswith("test_cli.py:")


@pytest.mark.parametrize("argv", [
    ("verify", "indec", "--p", "2"),
    ("verify", "combinatorics", "--p", "11"),
    ("verify", "cores", "--p", "5"),
    ("verify", "hodge", "--p", "7"),
    ("verify", "cores", "--p", "7"),
    ("verify", "all", "--p", "11"),
])
def test_verify_refuses_unsupported_selection(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParams"


def test_verify_runs_at_p7_from_lists_derived_from_p(capsys, tmp_path):
    # the opt-in prime: every list is derived from p, so the augmentation
    # ideal cases sit at p^2 - p and p^2 - 1, and every sampled
    # classification pair keeps p <= d < p^2 - p, where the top digit is
    # nonzero; cores and hodge have the empty sample
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "all", "--p", "7", "--out", str(out))
    rep = json.loads(out.read_text())
    assert code == 0 and rep["counts"]["fail"] == 0
    verdicts = {c["case"]: c["verdict"] for c in rep["cases"]}
    assert verdicts["structure/p7/vdr42-aug"] == verdicts["structure/p7/vdr48-aug"] == "pass"
    pairs = [c.split("/")[-1] for c in verdicts if c.startswith("classification/p7/vdr/")]
    assert len(pairs) == 43
    ds = [int(d) for name in pairs for d in re.findall(r"d(\d+)", name)]
    assert len(ds) == 2 * len(pairs) and all(7 <= d < 42 for d in ds)
    assert not any(c.startswith(("cores/", "hodge/")) for c in verdicts)


@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_query_has_no_tiers_option(capsys, tmp_path, kind):
    # every query kind refuses --tiers as an unknown argument, with the
    # usage text
    m = tmp_path / "m.json"
    m.write_text(json.dumps(_module_obj(capsys)))
    files = [str(m)] * (1 + (kind == "iso"))
    code, out, err = run(capsys, "query", kind, *files, "--tiers", "T1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tiers T1" in err


@pytest.mark.parametrize("kind,flags", [
    ("indec", ("--vector", "1,0")),
    ("jordan", ("--label", "w0")),
    ("profile", ("--vector", "1,0")),
    ("indec", ("--label", "w0")),
    ("jordan", ("--vector", "1,0")),
    ("profile", ("--label", "w0", "--vector", "1,0")),
])
def test_query_refuses_flags_it_would_ignore(capsys, tmp_path, kind, flags):
    m = tmp_path / "m.json"
    m.write_text(json.dumps(_module_obj(capsys)))
    code, out, err = run(capsys, "query", kind, str(m), *flags)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParams"


@pytest.mark.parametrize("p", [3, 5])
def test_query_indec_decides_every_member(capsys, tmp_path, p):
    # every v_d and v_dr member, and v_d(2) plus p - 1 trivial modules,
    # whose socle has dim p, get an answer: exit 2 is left for usage and
    # input errors
    ctx = default_ctx(p)
    t = ctx.gen()
    summed = km.v_d(ctx, 2, t)
    for _ in range(p - 1):
        summed = km.direct_sum(summed, km.trivial_module(ctx))
    mods = ([km.v_d(ctx, d, t) for d in range(1, p * p + 1)]
            + [km.v_dr(ctx, d, t) for d in range(p * p + 1)] + [summed])
    m = tmp_path / "m.json"
    for M in mods:
        m.write_text(json.dumps(km.module_to_json(M)))
        code, out, _ = run(capsys, "query", "indec", str(m))
        assert code == 0, M.meta
        assert json.loads(out)["verdict"] == ("DECOMPOSABLE" if M is summed
                                              else "INDECOMPOSABLE")


def test_query_indec_at_p7(capsys, tmp_path):
    v = tmp_path / "v.json"
    assert run(capsys, "build", "vdr", "--p", "7", "--d", "9", "--beta", "0,1",
               "--out", str(v))[0] == 0
    code, out, _ = run(capsys, "query", "indec", str(v))
    assert code == 0
    obj = json.loads(out)
    assert (obj["verdict"], obj["certificate"]) == ("INDECOMPOSABLE", "T3")
    assert obj["detail"]["socle_dim"] == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.sampled_from(["0,1", "1", "x", ""]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=12)
MODULE_KEYS = ("p", "n", "modulus", "dim", "sigma", "tau", "labels")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODULE_KEYS), st.booleans(), JSON_VALUES)
def test_module_from_json_fuzz(key, drop, value):
    """One key of a valid module object dropped or replaced by arbitrary
    JSON: the result is a module or a package error, never a crash."""
    C3 = default_ctx(3)
    obj = km.module_to_json(km.v_d(C3, 2, C3.gen()))
    if drop:
        del obj[key]
    else:
        obj[key] = value
    try:
        km.module_from_json(obj)
    except RepcurveError:
        pass


BUILD_FLAGS = [
    ("--p", ["2", "3", "5", "7", "-3", "0", "1", "4", str(10**18 + 3), "x"]),
    ("--n", ["1", "2", "3", "0", "-1", "12", str(10**9), "two"]),
    ("--modulus", ["1,0,1", "2,0,1", "1,1", "1,0,0,1", "4,0,1", "1,0,4",
                   "-2,0,1", "x", ""]),
    ("--d", ["-1", "0", "1", "5", "9", "30", "a"]),
    ("--beta", ["0,1", "1,1", "1,0", "1", "0,1,0", "0,7", "x", ","]),
    ("--m", ["-1", "0", "1", "2", "3", "6", "4000", str(10**9), "z"]),
    ("--alpha", ["0,1", "2,1", "1,0", "1", "5,1", "x"])]
QUERY_FLAGS = [("--label", ["w0", "u0", "eta1", "zz"]),
               ("--vector", ["1", "0,1;0,0;1,0", "1;1;1;1", "x", ""])]
VERIFY_FLAGS = [("--p", ["3", "5", "2", "7", "-1", "p"]),
                ("--seed", ["0", "-1", "9", "s"]),
                ("--format", ["json", "md", "xml"])]
CLAIMS_FLAGS = [("--format", ["json", "md", "xml"])]


def _module_files(capsys, tmp_path) -> tuple:
    """Small valid module files, and files that are not modules or are
    missing."""
    valid = []
    for name, argv in [("t2", ("trivial", "--p", "2", "--n", "1")),
                       ("r2", ("regular", "--p", "2")),
                       ("v3", ("vd", "--p", "3", "--d", "3", "--beta", "0,1")),
                       ("vdr2", ("vdr", "--p", "2", "--d", "1", "--beta", "0,1"))]:
        path = tmp_path / f"{name}.json"
        if not path.exists():
            assert main(["build", *argv, "--out", str(path)]) == 0
        valid.append(str(path))
    zero = json.loads((tmp_path / "t2.json").read_text())
    zero.update(dim=0, sigma=[], tau=[], labels=None)
    invalid = []
    for name, text in [("zero", json.dumps(zero)), ("list", "[1, 2]"),
                       ("cut", '{"p": 3'), ("nokey", '{"p": 3}')]:
        (tmp_path / f"{name}.json").write_text(text)
        invalid.append(str(tmp_path / f"{name}.json"))
    capsys.readouterr()
    return valid, invalid + [str(tmp_path / "missing.json")]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_argument_fuzz(capsys, tmp_path, data):
    """argv drawn from the subcommands, their flags with valid, out-of-range
    and malformed values, and small module files: main returns 0, 1 or 2,
    never 3 (an internal error), and never raises."""
    valid, invalid = _module_files(capsys, tmp_path)
    command = data.draw(st.sampled_from(["build", "query", "claims", "verify"]))
    if command == "build":
        argv = ["build", data.draw(st.sampled_from(BUILD_KINDS + ("bogus",)))]
        flags = BUILD_FLAGS
    elif command == "query":
        kind = data.draw(st.sampled_from(QUERY_KINDS + ("bogus",)))
        if data.draw(st.booleans()):  # the file count the kind needs, all valid
            files = st.lists(st.sampled_from(valid), min_size=1 + (kind == "iso"),
                             max_size=1 + (kind == "iso"))
        else:
            files = st.lists(st.sampled_from(valid + invalid), max_size=3)
        argv = ["query", kind] + data.draw(files)
        flags = QUERY_FLAGS
    elif command == "claims":
        argv, flags = ["claims"], CLAIMS_FLAGS
    else:
        argv, flags = ["verify", "combinatorics"], VERIFY_FLAGS
    out = [str(tmp_path / "out.json"), str(tmp_path / "no" / "out.json"), str(tmp_path)]
    for flag, values in flags + [("--out", out)]:
        # --p is required by build; any other flag is given one time in three
        if (command, flag) == ("build", "--p") or data.draw(st.integers(0, 2)) == 0:
            argv += [flag, data.draw(st.sampled_from(values))]
    if command == "verify" and data.draw(st.booleans()):
        argv.append("--timings")
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2), argv
