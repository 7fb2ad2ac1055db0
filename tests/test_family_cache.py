"""The shared family modules, the generator/relation presentation that
Hom is solved from, and the batched checks of a new module."""

import gc
import hashlib
import json
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repcurve import ff, linalg, suites
from repcurve import curvefam as cf
from repcurve import kmod as km
from repcurve.errors import (BadDimension, ContextMismatch, NotCommuting,
                             OrderViolation, PrimeFieldElement, RepcurveError,
                             ShapeMismatch, UnlabeledModule)
from repcurve.cli import main
from repcurve.ff import FieldCtx, ctx_new, default_ctx
from repcurve.linalg import Mat, Subspace, kernel
from repcurve.suites import SUITE_PRIMES, report_to_json, run_suite
from reference import conjugate, intertwiner_space, matpow

C3 = default_ctx(3)
C5 = default_ctx(5)
T3 = C3.gen()


@pytest.mark.parametrize("build", [km.v_d, km.v_dr])
def test_equal_keys_share_one_module(build):
    M = build(C3, 4, T3)
    assert build(C3, 4, T3) is M
    # an equal context built apart from the shared one keeps its own module
    ctx = FieldCtx(3, 2, C3.modulus)
    assert ctx is not C3 and ctx == C3
    N = build(ctx, 4, ctx.gen())
    assert N == M and N is not M and build(ctx, 4, ctx.gen()) is N
    assert N._cache is not M._cache
    assert build(C3, 6, T3) is not M
    assert build(C3, 4, T3 + 1) is not M
    other = km.v_dr if build is km.v_d else km.v_d
    assert other(C3, 4, T3) is not M


def test_definition_table_is_shared_and_read_only():
    S, T = km.vd_definition(C3, T3)
    assert km.vd_definition(C3, T3) is km.vd_definition(C3, T3)
    assert not S.flags.writeable and not T.flags.writeable


@pytest.mark.parametrize("call,error", [
    (lambda: km.v_d(C3, 0, T3), BadDimension),
    (lambda: km.v_d(C3, 10, T3), BadDimension),
    (lambda: km.v_d(C3, 0, C3.el(2)), BadDimension),
    (lambda: km.v_d(C3, 4, C3.el(2)), PrimeFieldElement),
    (lambda: km.v_d(C3, 4, C5.gen()), ContextMismatch),
    (lambda: km.v_dr(C3, -1, T3), BadDimension),
    (lambda: km.v_dr(C3, 10, C3.el(1)), BadDimension),
    (lambda: km.v_dr(C3, 4, C3.el(1)), PrimeFieldElement),
])
def test_invalid_arguments_raise_and_cache_nothing(call, error):
    km.v_d(C3, 3, T3)
    # 2 + t has the index of C5's t: the cached module a beta from F_25 would key
    km.v_d(C3, 4, C3.from_text("2,1"))
    before = dict(C3._cache)
    with pytest.raises(error):
        call()
    assert C3._cache == before


@pytest.mark.parametrize("call", [
    lambda b: km.binomial_table(C3, b),
    lambda b: km.vd_definition(C3, b),
    lambda b: km.v_d(C3, 4, b),
    lambda b: km.v_dr(C3, 4, b),
], ids=["binomial_table", "vd_definition", "v_d", "v_dr"])
def test_field_tables_refuse_an_element_of_another_field(call):
    # F_25's t has the index of 2 + t in F_9, whose tables are cached here:
    # the memo would answer with them, or build a table from that index
    km.v_d(C3, 4, C3.from_text("2,1"))
    before = dict(C3._cache)
    with pytest.raises(ContextMismatch):
        call(C5.gen())
    assert C3._cache == before


def test_family_data_goes_with_its_field():
    # modules and tables live on their context, and each module's derived
    # data on the module: once no caller and no context cache holds the
    # field, it is freed with all of them
    ctx = ctx_new(7, 2, (3, 1, 1))
    ref = weakref.ref(ctx)
    beta = ctx.gen()
    km.v_d(ctx, 3, beta), km.profile(km.v_dr(ctx, 3, beta))
    km.binomial_table(ctx, beta), km.vd_definition(ctx, beta)
    del ctx, beta
    ff._ctx_cached.cache_clear()
    gc.collect()
    assert ref() is None


# the module-level memoized functions of a module, each called on it
MODULE_MEMOS = (km.fixed_space, km._flag, km.filtration_dims, km._hom_source_data,
                km._hom_pivot_inverse, lambda M: km._hom_solve(M, M), km._end_split,
                km.jordan_scan, km.dual)


@pytest.mark.parametrize("ctx", [C3, C5], ids=["p3", "p5"])
def test_vdr_is_one_module_per_class(ctx):
    # v_dr(d) depends on d only through d // p: every member of a class is
    # the one module built at its least member, so every memoized value is
    # computed once for the class
    p, t = ctx.p, ctx.gen()
    built = {d: km.v_dr(ctx, d, t) for d in range(p * p + 1)}
    for d, M in built.items():
        assert M.meta["d"] == d - d % p
        assert all((M is N) == (d // p == e // p) for e, N in built.items())
    # building asks for no derived data
    assert all(M._cache == {} for M in built.values())
    first = {}
    for d, M in built.items():
        values = [fn(M) for fn in MODULE_MEMOS] + [M.gens0(), M.word_stack()]
        assert all(a is b for a, b in zip(values, first.setdefault(d // p, values)))


# the cases whose second module is the quotient of a member of the first's
# class: v_dr would hand back the first module itself
SAME_CLASS = re.compile(r"vdr-digit-|same-class-|/vdr/d(\d)-([\d,]+)-vs-d(?!\1)\d-\2$")


@pytest.mark.parametrize("suite,p,count", [("structure", 3, 9), ("classification", 3, 18),
                                           ("classification", 5, 3)])
def test_same_class_cases_compare_with_the_quotient(monkeypatch, suite, p, count):
    # a quotient of another class makes exactly the same-class YES cases fail
    real = km.vdr_quotient
    monkeypatch.setattr(km, "vdr_quotient",
                        lambda ctx, d, beta: real(ctx, (d + ctx.p) % (ctx.p * ctx.p), beta))
    cases = run_suite(suite, (p,))["cases"]
    failed = [c["case"] for c in cases if c["verdict"] == "fail"]
    assert failed == [c["case"] for c in cases if SAME_CLASS.search(c["case"])]
    assert len(failed) == count


def test_label_answers_stay_per_module(capsys, tmp_path):
    # the trivial module and v_d(1) have equal matrices, but their labels
    # and meta, and what is read from them, are their own
    triv, w = km.trivial_module(C3), km.v_d(C3, 1, T3)
    assert triv == w and km.profile(triv) == km.profile(w)
    assert km.dual(triv).labels == ("u0*",) and km.dual(w).labels == ("w0*",)
    assert km.label_degrees(w).tolist() == [0]
    with pytest.raises(UnlabeledModule):
        km.label_degrees(triv)
    # a copy of v_dr(3, 4) with its labels reversed: query ddeg --label
    # answers by each file's own labels
    M = km.v_dr(C3, 4, T3)
    obj = km.module_to_json(M)
    files = {}
    for name, labels in (("a", obj["labels"]), ("b", obj["labels"][::-1])):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(dict(obj, labels=labels)))
    answers = []
    for name in ("a", "b"):
        assert main(["query", "ddeg", str(files[name]), "--label", "eta1"]) == 0
        answers.append(json.loads(capsys.readouterr().out)["ddeg"])
    assert answers == [km.ddeg(M, M.basis_vector(0)), km.ddeg(M, M.basis_vector(M.dim - 1))]
    assert answers[0] != answers[1]


@pytest.mark.parametrize("build", [km.trivial_module, km.regular_module,
                                   km.augmentation_ideal])
def test_stock_modules_are_shared(build):
    M = build(C3)
    assert build(C3) is M and build(C5) is not M


def _module(ctx, rng, kind):
    """A family member, a dual or a direct sum."""
    t = ctx.gen() + rng.randrange(ctx.p)
    pp = ctx.p ** 2
    if kind == "vdr":
        return km.v_dr(ctx, rng.randrange(pp + 1), t)
    if kind == "dual":
        return km.dual(km.v_d(ctx, rng.randrange(1, 8), t))
    if kind == "sum":
        return km.direct_sum(km.v_d(ctx, rng.randrange(1, 5), t),
                             km.v_d(ctx, rng.randrange(1, 5), t))
    return km.v_d(ctx, rng.randrange(1, 10), t)


def _word_shifts(ctx, R, t):
    """Every word sigma0^a tau0^b applied to the relations R, as shifts
    of their word index."""
    p = ctx.p
    R = R.reshape(len(R), t, p, p)
    out = []
    for a in range(p):
        for b in range(p):
            S = np.zeros_like(R)
            S[:, :, a:, b:] = R[:, :, :p - a, :p - b]
            out.append(S.reshape(len(R), t * p * p))
    return np.vstack(out)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([C3, C5]), st.integers(0, 10**6),
       st.sampled_from(["vd", "vdr", "dual", "sum"]),
       st.sampled_from(["vd", "vdr", "dual", "sum"]))
def test_hom_from_relation_generators_matches_reference(ctx, seed, kind_m, kind_n):
    rng = random.Random(seed)
    M = _module(ctx, rng, kind_m)
    N = M if rng.random() < 0.2 else _module(ctx, rng, kind_n)
    # v_dr at p = 5 has dim 24: keep the reference's dim M * dim N small
    if ctx.p == 5 and "vdr" in (kind_m, kind_n) and min(M.dim, N.dim) > 8:
        N = km.v_d(ctx, rng.randrange(1, 6), ctx.gen())
    src = km._hom_source_data(M)
    rel = kernel(Mat(ctx, src["E"]))
    # the kept relations generate every relation over the group algebra
    assert len(src["relgens"]) <= rel.dim
    closure = Subspace.from_rows(ctx, rel.ambient,
                                 _word_shifts(ctx, src["relgens"], src["t"]))
    assert closure == rel
    H = km.hom_space(M, N)
    assert H == intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau])


def test_end_vdr_5_12_solves_from_three_relation_generators(monkeypatch):
    M = km.v_dr(C5, 12, C5.gen())
    km._hom_source_data(M)
    seen = []
    real = km.kernel

    def counted(A):
        seen.append(A.rows)
        return real(A)

    monkeypatch.setattr(km, "kernel", counted)
    H = km.hom_space(M, M)
    assert len(seen) == 1 and seen[0] <= 3 * M.dim
    monkeypatch.undo()
    assert H == intertwiner_space([M.Msigma, M.Mtau], [M.Msigma, M.Mtau])


def test_end_matrices_are_views_of_the_basis():
    M = km.v_dr(C3, 4, T3)
    H, mats = km.end_algebra(M)
    assert mats.shape == (H.dim, M.dim, M.dim)
    assert np.shares_memory(mats, H.basis) and not mats.flags.writeable
    assert np.array_equal(mats.reshape(H.dim, -1), H.basis)


def test_stacked_power_matches_matpow():
    rng = np.random.default_rng(1)
    stack = rng.integers(0, C5.q, (3, 4, 4))
    for e in range(7):
        got = linalg._matpow_idx(C5, stack, e)
        assert got.shape == stack.shape
        for X, A in zip(got, stack):
            assert np.array_equal(X, matpow(Mat(C5, A), e).data)


def test_module_checks_keep_their_order_and_messages():
    I = Mat.identity(C3, 2)
    J = Mat(C3, np.array([[1, 1], [0, 1]]))        # order 3
    K = Mat(C3, np.array([[1, 0], [1, 1]]))        # order 3, not commuting with J
    D = Mat(C3, np.array([[2, 0], [0, 1]]))        # order 2
    with pytest.raises(OrderViolation, match="^sigma matrix"):
        km.HModule(C3, D, D)
    with pytest.raises(OrderViolation, match="^tau matrix"):
        km.HModule(C3, J, D)
    with pytest.raises(NotCommuting, match="do not commute"):
        km.HModule(C3, J, K)
    assert km.HModule(C3, J, I).dim == 2
    assert km.HModule(C3, Mat.zeros(C3, 0, 0), Mat.zeros(C3, 0, 0)).dim == 0


def _count_products(monkeypatch) -> list:
    """The field products, counted at each import site of _matmul_idx."""
    calls = []
    real = linalg._matmul_idx

    def counted(ctx, A, B):
        calls.append(1)
        return real(ctx, A, B)

    for module in (linalg, km, suites):
        monkeypatch.setattr(module, "_matmul_idx", counted)
    return calls


def _count_checks(monkeypatch) -> list:
    """The shapes of the stacks check_actions is called on, curvefam's
    import of it included."""
    checks = []
    real = km.check_actions

    def counted(ctx, gens):
        checks.append(gens.shape)
        return real(ctx, gens)

    for module in (km, cf):
        monkeypatch.setattr(module, "check_actions", counted)
    return checks


def _outcome(build):
    """(error type, message) that build() raises, or ("ok", [(dim, sigma,
    tau, labels, meta)]) of the modules it returns."""
    try:
        mods = build()
    except RepcurveError as e:
        return type(e), str(e)
    return "ok", [(M.dim, M.Msigma, M.Mtau, M.labels, M.meta) for M in mods]


def _one_by_one(ctx, specs):
    return _outcome(lambda: [km.HModule(ctx, *spec) for spec in specs])


def _batch(ctx, specs):
    """The outcome of one check_actions on the stacked pairs of specs, all
    of one dim, and a derivation of each stack: how dr_graded builds its
    distinct pieces."""
    def build():
        gens = [np.stack([S.data, T.data]) for S, T in specs]
        if gens:
            km.check_actions(ctx, np.stack(gens))
        return [km.HModule._derived(ctx, G) for G in gens]

    return _outcome(build)


def _spec(ctx, d, shift=0):
    """(Msigma, Mtau) of v_d(d, t + shift), cut from the binomial table
    with no check."""
    G = km.binomial_table(ctx, ctx.gen() + shift)
    return Mat(ctx, G[0, :d, :d].copy()), Mat(ctx, G[1, :d, :d].copy())


J = Mat(C3, np.array([[1, 1], [0, 1]]))        # order 3
K = Mat(C3, np.array([[1, 0], [1, 1]]))        # order 3, not commuting with J
D = Mat(C3, np.array([[2, 0], [0, 1]]))        # order 2
BAD_PAIRS = {"sigma": (D, J), "tau": (J, D), "both": (D, D), "commute": (J, K)}


@pytest.mark.parametrize("j", [1, 3])
@pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
def test_batch_raises_what_the_first_bad_pair_raises(bad, j):
    specs = [_spec(C3, 2, shift) for shift in range(4)]
    specs[j] = BAD_PAIRS[bad]
    want = _one_by_one(C3, [BAD_PAIRS[bad]])
    assert want[0] in (OrderViolation, NotCommuting)
    assert _batch(C3, specs) == _one_by_one(C3, specs) == want
    # a bad pair after it, of any kind, does not change the report
    for later in BAD_PAIRS.values():
        assert _batch(C3, specs + [later]) == want


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 3)])
def test_batch_matches_one_by_one_over_small_and_cubic_fields(p, n):
    ctx = default_ctx(p, n)
    specs = [_spec(ctx, p * p, shift) for shift in range(p)]
    assert _batch(ctx, specs) == _one_by_one(ctx, specs)
    assert _batch(ctx, specs)[0] == "ok"
    # a diagonal entry that is a nonzero scalar other than 1 gives tau an
    # order prime to p
    scaled = np.eye(p * p, dtype=np.int64)
    scaled[0, 0] = ctx.gen().idx
    specs[1] = (Mat.identity(ctx, p * p), Mat(ctx, scaled))
    assert _batch(ctx, specs) == _one_by_one(ctx, specs)
    assert _batch(ctx, specs)[0] is OrderViolation


def _corrupt(spec, faults, rng):
    """spec with each fault applied: a diagonal entry of the triangular
    sigma or tau moved off 1 (its p-th power is then not 1), tau replaced
    by the transpose of sigma (order p, commuting only at dim 1), or one
    entry of sigma or tau redrawn."""
    S, T = spec
    ctx, d = S.ctx, S.rows
    for fault in sorted(faults) if d else ():
        if fault == "commute":
            T = Mat(ctx, S.data.T.copy())
            continue
        on_sigma = fault == "sigma" or (fault == "entry" and rng.random() < 0.5)
        X = (S if on_sigma else T).data.copy()
        i = rng.randrange(d)
        if fault == "entry":
            X[i, rng.randrange(d)] = rng.randrange(ctx.q)
        else:
            X[i, i] = rng.randrange(2, ctx.q)
        S, T = (Mat(ctx, X), T) if on_sigma else (S, Mat(ctx, X))
    return S, T


FAULTS = st.sets(st.sampled_from(["sigma", "tau", "commute", "entry"]), max_size=2)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([C3, C5]), st.integers(0, 10**6),
       st.integers(0, 9), st.lists(FAULTS, max_size=6))
def test_batch_outcome_is_the_first_one_by_one_outcome(ctx, seed, d, pairs):
    """Random stacks of family pairs of one dim, most of them corrupted
    (_corrupt): the stacked check builds what one-by-one construction
    builds, or raises what its first failing construction raises."""
    rng = random.Random(seed)
    specs = [_corrupt(_spec(ctx, d, rng.randrange(ctx.p)), faults, rng) for faults in pairs]
    assert _batch(ctx, specs) == _one_by_one(ctx, specs)


def test_single_construction_keeps_its_products(monkeypatch):
    calls = _count_products(monkeypatch)
    # the squares and sigma tau, tau sigma in one product, then the p-th
    # powers: one more product at p = 3, two at p = 5
    km.HModule(C3, *_spec(C3, 5))
    assert len(calls) == 2
    km.HModule(C5, *_spec(C5, 12))
    assert len(calls) == 2 + 3


# products of one cold build; a holo build checks only the two p x p
# factors of its beta (6 and 4 when it checked its distinct members
# together); checking each distinct piece with its own chain took 27, 100,
# 100 and 27, and a check that formed the squares apart from sigma tau and
# tau sigma took 3, 8, 4 and 6
BUILD_PRODUCTS = [
    (("dr", "--p", "3", "--m", "10"), 2),
    (("holo", "--p", "5", "--m", "26"), 3),
    (("dr", "--p", "5", "--m", "99"), 3),
    (("holo", "--p", "3", "--m", "100"), 2),
]


@pytest.mark.parametrize("argv,most", BUILD_PRODUCTS,
                         ids=[" ".join(argv) for argv, _ in BUILD_PRODUCTS])
def test_graded_build_checks_its_pieces_in_one_chain(monkeypatch, tmp_path, argv, most):
    out = tmp_path / "graded.json"
    build = ["build", *argv, "--alpha", "0,1", "--out", str(out)]
    calls = _count_products(monkeypatch)
    assert main(build) == 0
    assert 0 < len(calls) <= most
    assert len(json.loads(out.read_text())["pieces"]) == int(argv[-1]) - 1
    if argv[0] == "holo":
        # every holomorphic piece is shared: a second build checks nothing
        calls.clear()
        assert main(build) == 0 and calls == []


def test_planted_fault_in_one_dr_piece_is_reported(monkeypatch, capsys):
    ctx = default_ctx(3)
    params = cf.curve_params(ctx, 10, ctx.from_text("0,1"))
    real = km.dr_action

    def broken(ctx, d, beta, gamma):
        G = real(ctx, d, beta, gamma)
        if d == 4:
            G = G.copy()
            G[0, 0, 0] = 2
        return G

    # curvefam calls its own import of dr_action
    monkeypatch.setattr(km, "dr_action", broken)
    monkeypatch.setattr(cf, "dr_action", broken)
    # piece c = 5 has d = dd(10 - 5) = 4; the others are sound
    gens = km.dr_action(ctx, cf.dd(3, 10, 10 - 5), params.beta, params.gamma)
    with pytest.raises(OrderViolation) as alone:
        km.HModule(ctx, *(Mat(ctx, X) for X in gens))
    assert main(["build", "dr", "--p", "3", "--m", "10", "--alpha", "0,1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "OrderViolation", "message": str(alone.value)}


KINDS = st.sampled_from(["vd", "vdr", "dual", "sum"])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([C3, C5]), st.integers(0, 10**6), KINDS, KINDS,
       st.booleans(), st.booleans())
def test_hom_dim_matches_map_basis(ctx, seed, kind_m, kind_n, conj_m, conj_n):
    rng = random.Random(seed)
    M = _module(ctx, rng, kind_m)
    N = M if rng.random() < 0.2 else _module(ctx, rng, kind_n)
    if M.dim * N.dim > 100:  # keep the Kronecker-product reference small
        N = km.v_d(ctx, rng.randrange(1, 5), ctx.gen())
    M = conjugate(M, rng) if conj_m else M
    N = conjugate(N, rng) if conj_n else N
    ref = intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau]).dim
    assert km.hom_dim(M, N) == km.hom_space(M, N).dim == ref
    if M.dim * M.dim <= 100:
        assert km.end_dim(M) == km.end_algebra(M)[0].dim == km.hom_dim(M, M)


def _zero_module(ctx):
    return km.HModule(ctx, Mat.zeros(ctx, 0, 0), Mat.zeros(ctx, 0, 0))


def _any_module(ctx, rng, kind):
    """A module of _module's kinds, or the regular module (no generating
    relation), the trivial module or the zero module."""
    if kind == "regular":
        return km.regular_module(ctx)
    if kind == "trivial":
        return km.trivial_module(ctx)
    if kind == "zero":
        return _zero_module(ctx)
    return _module(ctx, rng, kind)


def _assert_hom_dims_match_the_reference(M, N):
    want = (intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau]).dim,
            intertwiner_space([N.Msigma, N.Mtau], [M.Msigma, M.Mtau]).dim)
    assert km._hom_dims(M, N) == want
    assert km._hom_dims(N, M) == want[::-1]
    assert (km.hom_dim(M, N), km.hom_dim(N, M)) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([C3, C5]), st.integers(0, 10**6),
       st.sampled_from(["vd", "vdr", "dual", "sum", "regular", "trivial", "zero"]),
       KINDS, st.booleans(), st.booleans())
def test_hom_dims_match_the_reference_both_ways(ctx, seed, kind_m, kind_n, conj_m, conj_n):
    rng = random.Random(seed)
    M = _any_module(ctx, rng, kind_m)
    N = _module(ctx, rng, kind_n)
    if M.dim * N.dim > 100:  # keep the Kronecker-product reference small
        N = km.v_d(ctx, rng.randrange(1, 5), ctx.gen())
    M = conjugate(M, rng) if conj_m and M.dim else M
    N = conjugate(N, rng) if conj_n else N
    _assert_hom_dims_match_the_reference(M, N)


# pairs of unequal generator counts t (2 and 1, 1 and 2, 3 and 2 in this
# order) whose two condition matrices differ in shape, so the stack pads
# them; the regular module has no generating relation, so its has no row
PADDED_PAIRS = {
    "vdr-trivial": lambda: (km.v_dr(C3, 4, T3), km.trivial_module(C3)),
    "regular-vd": lambda: (km.regular_module(C3), km.v_d(C3, 5, T3)),
    "sum-vdr": lambda: (km.direct_sum(km.v_d(C3, 2, T3), km.v_d(C3, 4, T3 + 1)),
                        km.v_dr(C3, 6, T3)),
}


@pytest.mark.parametrize("name", sorted(PADDED_PAIRS))
def test_hom_dims_pad_unequal_condition_matrices(name):
    M, N = PADDED_PAIRS[name]()
    shapes = {km._hom_conditions(M, N).shape, km._hom_conditions(N, M).shape}
    assert len(shapes) == 2
    _assert_hom_dims_match_the_reference(M, N)


def test_hom_dims_of_the_zero_module_and_across_fields():
    M = km.v_d(C3, 3, T3)
    _assert_hom_dims_match_the_reference(_zero_module(C3), M)
    N = km.v_d(C5, 3, C5.gen())
    for A, B in ((M, N), (N, M), (_zero_module(C3), N)):
        with pytest.raises(ContextMismatch):
            km._hom_dims(A, B)
        with pytest.raises(ContextMismatch):
            km.hom_dim(A, B)


def _count_map_builds(monkeypatch) -> list:
    """Record each call of hom_space, the map rebuild behind is_isomorphic
    and end_algebra."""
    calls = []
    real = km.hom_space

    def counted(*args):
        calls.append("hom_space")
        return real(*args)

    monkeypatch.setattr(km, "hom_space", counted)
    return calls


def test_dim_decisions_build_no_maps(monkeypatch):
    rng = random.Random(3)
    # fresh modules, so no map basis is cached from an earlier call
    M = conjugate(km.v_dr(C3, 4, T3), rng)
    N = conjugate(km.v_dr(C3, 4, T3 + 1), rng)
    calls = _count_map_builds(monkeypatch)
    dec = km.is_isomorphic(M, N)
    assert (dec.verdict, dec.method) == ("NO", "hom-dim-mismatch")
    assert dec.detail == {"hom": [9, 9], "end": [10, 10]}
    assert km.profile(conjugate(km.v_dr(C3, 7, T3), rng)).end_dim > 0
    assert calls == []
    # the YES path rebuilds the one Hom basis its witness search needs
    assert km.is_isomorphic(M, conjugate(M, rng)).verdict == "YES"
    assert calls == ["hom_space"]


def _count_hom_work(monkeypatch) -> tuple:
    """Record the module pair of each Hom relation solve, and of each
    condition matrix formed between two modules: a computed _hom_dims(M, N)
    forms (M, N) and then (N, M), a relation solve of Hom(M, N) forms
    (M, N), and a value read from the memo forms none."""
    solves, conds = [], []
    real_solve, real_conds = km._hom_solve, km._hom_conditions

    def counted_solve(M, N):
        solves.append((M, N))
        return real_solve(M, N)

    def counted_conds(M, N):
        if M is not N:
            conds.append((M, N))
        return real_conds(M, N)

    monkeypatch.setattr(km, "_hom_solve", counted_solve)
    monkeypatch.setattr(km, "_hom_conditions", counted_conds)
    return solves, conds


def test_classification_computes_each_pairs_hom_dims_once(monkeypatch):
    # the classification p3 pairs are decided by equal matrices or by the
    # Hom dims: one stacked rank per unordered pair, kept on both modules,
    # and no Hom kernel of two modules; the relation solves left are End
    # solves
    solves, conds = _count_hom_work(monkeypatch)
    cases = run_suite("classification", (3,))["cases"]
    assert len(cases) == 297 and all(c["verdict"] == "pass" for c in cases)
    assert all(M is N for M, N in solves)
    computed = conds[::2]
    assert conds[1::2] == [(N, M) for M, N in computed]
    assert len(computed) == 105
    assert len({(id(M), N) for M, N in computed}) == len(computed)
    assert not {(id(N), M) for M, N in computed} & {(id(M), N) for M, N in computed}


def test_hom_dims_asked_the_other_way_round_form_no_conditions(monkeypatch):
    # a computed pair is kept on both modules, so the reverse ask reads
    # the reversed dims and forms no condition matrix and no rank
    M = conjugate(km.v_d(C3, 5, T3), random.Random(3))
    N = km.v_d(C3, 2, T3)
    dims = km._hom_dims(M, N)
    assert dims == (3, 2)
    calls = []
    for name in ("_hom_conditions", "_rank_stack"):
        monkeypatch.setattr(km, name, lambda *args, name=name: calls.append(name))
    assert km._hom_dims(N, M) == dims[::-1]
    assert km.hom_dim(N, M) == dims[1]
    assert calls == []


def _count_computed(monkeypatch, name) -> list:
    """Rewrap the memoized function name around a counter of the values
    it computes, that is of its memo misses, and return the counter."""
    inner, computed = getattr(km, name).__wrapped__, []

    def counting(*args):
        computed.append(args)
        return inner(*args)

    counting.__name__ = name
    monkeypatch.setattr(km, name, km._memo(counting))
    return computed


def test_verify_all_hom_work_stays_counted(monkeypatch):
    # `verify all` at seed 0 computes 241 decisions of its 405
    # is_isomorphic calls (413, all computed, before each decision was kept
    # on its first module), 141 Hom dim pairs (each kept on both modules;
    # 153 before), 122 relation solves (154) and forms 377 condition
    # matrices (421; 460 when step 5 of is_isomorphic formed its Hom(M, N)
    # conditions again), and makes 678 eliminations of 6,314 pivot steps
    # (715 of 7,000 when a witness check and the dr suite's intertwiner
    # check inverted their map to test it; 977 of 7,966) and 147 flag row
    # profiles of 1,704 steps (167 of 1,724; 1,635 eliminations when each
    # flag took one per word degree, 13,526 steps when each filtration
    # level took its own).  It computes 11 End/J splits, the indec suite
    # reading those of its v_dr cases itself.  It forms no filtration level
    # and makes 1,580 products (1,584 when the hodge suite built the p = 3
    # de Rham families apart from the dr suite; 1,669 when the Hodge check
    # built and checked its own piece; 1,833 when a quotient proved its
    # subspace invariant apart from its change of basis and the socle
    # restriction tested membership;
    # 1,907 when a witness check and the dr suite's intertwiner check took
    # one product per generator, 2,056 when each v_d member took its own
    # order and commute check, 2,541 when every derived module did, and a
    # quotient and a dual formed each generator apart; 3,104 before the decision, quotient and core memos, 3,468 when each
    # module check formed the squares apart from sigma tau and tau sigma,
    # 4,586 when each graded piece took its own order and commute check) in
    # 81 check_actions calls (83, 91, 153, 306); counts, unlike times, are
    # free of host noise
    decisions = _count_computed(monkeypatch, "is_isomorphic")
    dims = _count_computed(monkeypatch, "_hom_dims")
    solves = _count_computed(monkeypatch, "_hom_solve")
    splits = _count_computed(monkeypatch, "_end_split")
    products = _count_products(monkeypatch)
    checks = _count_checks(monkeypatch)
    conds, steps, profiles, levels = [], [], [], []
    real_conditions, real_rref = km._hom_conditions, linalg._rref_inplace
    real_profile = linalg._row_profile

    def counted(M, N):
        conds.append((M, N))
        return real_conditions(M, N)

    def eliminated(ctx, X):
        pivots = real_rref(ctx, X)
        steps.append(len(pivots))
        return pivots

    def profiled(ctx, X):
        rows = real_profile(ctx, X)
        profiles.append(len(rows))
        return rows

    monkeypatch.setattr(km, "_hom_conditions", counted)
    monkeypatch.setattr(km, "s_filtration", levels.append)
    monkeypatch.setattr(linalg, "_rref_inplace", eliminated)
    monkeypatch.setattr(km, "_row_profile", profiled)
    assert run_suite("all", SUITE_PRIMES, seed=0)["exit"] == 0
    assert levels == []
    counts = (len(decisions), len(dims), len(solves), len(conds), len(steps), sum(steps),
              len(profiles), sum(profiles), len(products), len(checks), len(splits))
    most = (241, 141, 122, 377, 678, 6314, 147, 1704, 1580, 81, 11)
    assert all(n <= m for n, m in zip(counts, most)), counts


def _count_family_builds(monkeypatch) -> list:
    """Record (kind, p, m) of each holo_graded and dr_graded call."""
    builds = []
    for kind in ("holo", "dr"):
        def counted(params, kind=kind, real=getattr(cf, f"{kind}_graded")):
            builds.append((kind, params.p, params.m))
            return real(params)

        monkeypatch.setattr(cf, f"{kind}_graded", counted)
    return builds


def test_verify_all_builds_each_graded_family_once(monkeypatch):
    # the holo, dr and hodge suites read one family per (field, kind, m),
    # kept on the field context; when the dr and hodge suites each kept
    # their own, the p = 3 de Rham families at m = 2 and 10 were built twice
    builds = _count_family_builds(monkeypatch)
    assert run_suite("all", SUITE_PRIMES, seed=0)["exit"] == 0
    assert sorted(builds) == [(kind, p, m) for kind in ("dr", "holo")
                              for p, m in ((3, 2), (3, 10), (5, 26))]


def test_a_second_run_builds_and_checks_no_family(monkeypatch):
    # the second run reads every family from its field context: it made 5
    # builds and 5 checks, one per de Rham build, when each run kept its own
    first = report_to_json(run_suite("all", SUITE_PRIMES, seed=0))
    builds = _count_family_builds(monkeypatch)
    checks = _count_checks(monkeypatch)
    assert report_to_json(run_suite("all", SUITE_PRIMES, seed=0)) == first
    assert builds == [] and checks == []


# the memos of a decision, of the paper's quotient and of the case-II cores
DECISION_MEMOS = ("is_isomorphic", "vdr_quotient", "_case_ii_module")


def test_memos_change_no_report_byte(monkeypatch):
    # the decisions, quotients and cores kept on their owners give the
    # report of the unmemoized functions byte for byte, from fewer decisions
    plain = {name: getattr(km, name).__wrapped__ for name in DECISION_MEMOS}
    computed = _count_computed(monkeypatch, "is_isomorphic")
    memoized = report_to_json(run_suite("all", SUITE_PRIMES, seed=0))
    for ctx in list(ff._CTX_LIVE.values()):
        ctx._cache.clear()
    calls = []

    def decide(M, N):
        calls.append((M, N))
        return plain["is_isomorphic"](M, N)

    for name, fn in plain.items():
        monkeypatch.setattr(km, name, fn)
    monkeypatch.setattr(km, "is_isomorphic", decide)
    assert report_to_json(run_suite("all", SUITE_PRIMES, seed=0)) == memoized
    assert json.loads(memoized)["exit"] == 0
    assert len(computed) < len(calls)


@pytest.mark.parametrize("ctx", [C3, C5], ids=["p3", "p5"])
def test_vdr_quotient_is_kept_per_d_not_per_class(ctx):
    # the quotient is built at each d itself, so the members of one v_dr
    # class give distinct quotients and a same-class YES case compares
    # v_dr(d1) with a quotient built at d2; a memo keyed by the class would
    # hand back the quotient of d1 and pass by construction
    p, t = ctx.p, ctx.gen()
    quotients = {d: km.vdr_quotient(ctx, d, t) for d in range(p * p + 1)}
    for d, Q in quotients.items():
        assert Q.meta["d"] == d and km.vdr_quotient(ctx, d, t) is Q
        assert not any(R is Q for e, R in quotients.items() if e != d)


def test_krull_schmidt_leaves_the_summand_lists_whole(monkeypatch):
    # the summand match marks what it has taken and deletes nothing, so a
    # summand list kept across decisions stays whole
    monkeypatch.setattr(km, "_summands", km._memo(km._summands))
    M = km.direct_sum(km.v_d(C3, 2, T3), km.trivial_module(C3))
    N = conjugate(M, random.Random(1))
    parts = list(km._summands(N))
    assert len(parts) == 2
    for _ in range(2):
        assert km._krull_schmidt(M, N).verdict == "YES"
    assert [S for S, _ in km._summands(N)] == [S for S, _ in parts]


def test_case_ii_cores_are_kept_per_vector():
    M = km.v_dr(C3, 4, T3)
    u = M.basis_vector("eta8")
    core = km.case_ii_core(M, u)
    assert km.case_ii_core(M, [int(x) for x in u]) is core
    assert km.case_ii_core_with_fixed(M, u) is not core
    assert km.case_ii_core(M, M.basis_vector("eta7")) is not core
    with pytest.raises(ShapeMismatch):
        km.case_ii_core(M, np.ones(M.dim + 1, dtype=np.int64))


def test_hom_basis_pair_forms_one_hom_kernel(monkeypatch):
    rng = random.Random(3)
    M = conjugate(km.v_dr(C3, 4, T3), rng)
    N = conjugate(M, rng)
    solves, conds = _count_hom_work(monkeypatch)
    dec = km.is_isomorphic(M, N)
    assert (dec.verdict, dec.method) == ("YES", "hom-basis")
    assert [(A, B) for A, B in solves if A is not B] == [(M, N)]
    # the dims; the one Hom(M, N) kernel of step 5 takes the (M, N)
    # conditions that _hom_dims kept, and drops them
    assert conds == [(M, N), (N, M)]
    assert ("_hom_conditions", N) not in M._cache
    # the conditions are kept only for a solve still to come: not after
    # hom_space has solved Hom(M, N), nor for hom_dim, which reads dims
    for d, calls in ((6, (km.hom_space, km.hom_dim, km.is_isomorphic)), (5, (km.hom_dim,)),
                     (4, (km.hom_space, km.is_isomorphic))):
        M = km.v_d(C3, d, T3)
        N = conjugate(M, rng)
        for call in calls:
            call(M, N)
            assert ("_hom_conditions", N) not in M._cache, (d, call.__name__)


def test_hom_dim_forms_no_end_kernel(monkeypatch):
    # hom_dim answers a dim: its two kernels are the presentations of the
    # two fresh modules, and no relation solve, End or Hom, is computed;
    # equal dims keep the (M, N) conditions only until hom_dim drops them
    rng = random.Random(5)
    M = conjugate(km.v_d(C3, 5, T3), rng)
    N = conjugate(M, rng)
    solves = _count_computed(monkeypatch, "_hom_solve")
    kernels = []
    real = km.kernel

    def counted(A):
        kernels.append(A.rows)
        return real(A)

    monkeypatch.setattr(km, "kernel", counted)
    assert km.hom_dim(M, N) == km.hom_dim(N, M) == 5
    assert len(kernels) == 2 and solves == []
    assert ("_hom_conditions", N) not in M._cache


def test_decision_radical_runs_on_the_socle_image(monkeypatch):
    # End(v_dr(5, 12)) has dim 28 on a module of dim 24; the decision
    # runs the radical only on its image in End(soc M)
    M = km.v_dr(C5, 12, C5.gen())
    shapes = []
    real = km.algebra_radical

    def counted(ctx, mats):
        shapes.append(mats.shape[1:])
        return real(ctx, mats)

    monkeypatch.setattr(km, "algebra_radical", counted)
    dec = km.is_indecomposable(M)
    s = km.fixed_space(M).dim
    assert (dec.certificate, s, km.end_dim(M)) == ("T3", 2, 28)
    assert shapes and all(shape == (s, s) for shape in shapes)


def test_end_basis_reuses_the_end_solve(monkeypatch):
    M = conjugate(km.v_dr(C5, 12, C5.gen()), random.Random(5))
    eliminations = []
    real = km.kernel

    def counted(A):
        eliminations.append(A.rows)
        return real(A)

    monkeypatch.setattr(km, "kernel", counted)
    e = km.end_dim(M)
    assert len(eliminations) == 2  # the presentation's relations, then C
    H, _ = km.end_algebra(M)
    assert len(eliminations) == 2 and H.dim == e == 28
    assert km.hom_space(M, M).basis.tolist() == H.basis.tolist()
    assert len(eliminations) == 2


# every d at p = 2, 3 and 5, and a spread of d at p = 7, d = p^2 included
VDR_PAIRS = ([(p, d) for p in (2, 3, 5) for d in range(p * p + 1)]
             + [(7, d) for d in (0, 1, 6, 7, 20, 24, 42, 48, 49)])


def _vdr_matches_the_quotient(ctx, d, shift):
    # v_dr is gathered from the binomial table at the least member of d's
    # class; the paper defines it as a quotient of v_d(p^2) (+) v_d(d) at d
    # itself, which vdr_quotient builds
    beta = ctx.gen() + ctx.el(shift)
    M, Q = km.v_dr(ctx, d, beta), km.vdr_quotient(ctx, d, beta)
    assert M == Q and M.labels == Q.labels


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("p,d", VDR_PAIRS)
def test_vdr_matches_the_quotient(p, d, shift):
    _vdr_matches_the_quotient(default_ctx(p), d, shift)


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("p,d", [(p, d) for p in (2, 3) for d in range(p * p + 1)])
def test_vdr_matches_the_quotient_over_cubic_fields(p, d, shift):
    _vdr_matches_the_quotient(default_ctx(p, 3), d, shift)


def test_vdr_module_is_checked_once(monkeypatch):
    checks = []
    real = km.check_actions

    def counted(ctx, gens):
        checks.append(gens.shape)
        return real(ctx, gens)

    # every new HModule checks its pair with one check_actions call; v_dr
    # is gathered from the binomial table, with no direct sum to check
    monkeypatch.setattr(km, "check_actions", counted)
    # the autouse fixture leaves the cache cold, so this call builds
    M = km.v_dr(C3, 5, T3)
    assert checks == [(2, M.dim, M.dim)]
    assert M == km.v_dr(C3, 5, T3) and M.labels == km.v_dr(C3, 5, T3).labels


def test_derivations_check_nothing(monkeypatch):
    # a dual, sum, submodule or quotient of checked modules keeps the
    # relations, and so does every block vdr_quotient and the Hodge model
    # take of the checked vd_definition pair
    t = C3.gen()
    M, N = km.v_dr(C3, 4, t), km.v_d(C3, 5, t)
    km.vd_definition(C3, t)
    params = cf.curve_params(C3, 10, C3.from_text("0,1"))
    km.vd_definition(C3, params.beta)
    checks = _count_checks(monkeypatch)
    km.dual(M), km.direct_sum(M, N)
    km.sub_module_on(M, km.fixed_space(M))
    km.quotient(M, km.fixed_space(M))
    km.vdr_quotient(C3, 7, t)
    assert checks == []
    # the family build checks its distinct pieces in one stack; the Hodge
    # check reads its piece from the family, checks nothing and derives
    # its model
    gm = cf.dr_graded(params)
    assert checks == [(len(set(map(id, gm.pieces.values()))), 2, 8, 8)]
    cf.hodge_check(gm, 5)
    assert len(checks) == 1


def test_trust_boundary_checks_each_module_once(monkeypatch):
    checks = _count_checks(monkeypatch)
    M = km.HModule(C3, *_spec(C3, 5))
    assert checks == [(2, 5, 5)]
    assert km.module_from_json(km.module_to_json(M)) == M
    assert checks == [(2, 5, 5)] * 2
    # the autouse fixture leaves the cache cold, so this call builds
    km.vd_definition(C5, C5.gen())
    assert checks == [(2, 5, 5)] * 2 + [(2, 25, 25)]
    km.vd_definition(C5, C5.gen())
    assert len(checks) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cold_v_d_checks_only_the_factors_of_its_beta(monkeypatch, p):
    # v_d(p^2, beta) = v_d(p, beta^p) (x) v_d(p, beta): the first member of
    # a beta checks the two p x p factor pairs in one stack, and every
    # member of that beta is a block of v_d(p^2), derived with no check
    ctx = default_ctx(p)
    t = ctx.gen()
    checks = _count_checks(monkeypatch)
    km.v_d(ctx, p + 1, t)
    assert checks == [(2, 2, p, p)]
    assert [km.v_d(ctx, d, t).dim for d in range(1, p * p + 1)] == list(range(1, p * p + 1))
    assert checks == [(2, 2, p, p)]
    km.v_d(ctx, p * p, t + 1)
    assert checks == [(2, 2, p, p)] * 2


@pytest.mark.parametrize("factor", [0, 1], ids=["beta^p", "beta"])
def test_a_non_commuting_factor_pair_is_refused_at_the_first_v_d(monkeypatch, factor):
    real = km.binomial_factors

    def bad(ctx, beta):
        # tau replaced by the transpose of sigma: order p, not commuting
        F = real(ctx, beta).copy()
        F[factor, 1] = F[factor, 0].T
        return F

    monkeypatch.setattr(km, "binomial_factors", bad)
    with pytest.raises(NotCommuting):
        km.v_d(C3, 2, T3)
    assert not any(key[0] == "v_d" for key in C3._cache)


@pytest.mark.parametrize("p,sample", [(2, None), (3, None), (5, None), (7, 12)],
                         ids=["F4", "F9", "F25", "F49-sample"])
def test_binomial_table_is_the_definition(p, sample):
    # the Kronecker product of the factors is v_d(p^2, beta) entry by entry
    ctx = default_ctx(p)
    betas = [i for i in range(ctx.q) if not ctx.in_prime_field_idx(i)]
    if sample:
        betas = random.Random(p).sample(betas, sample)
    for i in betas:
        beta = ff.FieldElem(ctx, i)
        assert all(np.array_equal(X, Y) for X, Y in zip(km.binomial_table(ctx, beta),
                                                         km.vd_definition(ctx, beta))), i


def test_an_empty_graded_family_and_the_zero_module_check_nothing(monkeypatch):
    params = cf.curve_params(C3, 1, C3.from_text("0,1"))
    checks = _count_checks(monkeypatch)
    assert cf.dr_graded(params).pieces == {} and cf.holo_graded(params).pieces == {}
    assert cf._zero_module(C3).dim == 0
    assert checks == []


def _module_json(S, T):
    return {**km.module_to_json(km.v_d(C3, 2, T3)), "sigma": S.to_lists(), "tau": T.to_lists()}


@pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
def test_bad_pairs_are_refused_at_every_checked_entrance(bad, tmp_path, capsys):
    S, T = BAD_PAIRS[bad]
    with pytest.raises((OrderViolation, NotCommuting)) as alone:
        km.HModule(C3, S, T)
    want = (type(alone.value), str(alone.value))
    assert _outcome(lambda: [km.module_from_json(_module_json(S, T))]) == want
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_module_json(S, T)))
    assert main(["query", "indec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": want[0].__name__, "message": want[1]}


@pytest.mark.parametrize("build", [
    lambda: km.v_dr(C3, 4, T3), lambda: km.v_d(C5, 12, C5.gen()),
    lambda: km.direct_sum(km.v_d(C3, 3, T3), km.dual(km.v_dr(C3, 6, T3))),
    lambda: km.v_d(default_ctx(2), 3, default_ctx(2).gen())],
    ids=["v_dr p3", "v_d p5", "sum with a dual", "v_d p2"])
def test_dual_and_quotient_keep_their_matrices(build):
    # the stacked power and the stacked products give what the products
    # one generator at a time gave, byte for byte
    M = build()
    p = M.ctx.p
    D = km.dual(M)
    for X, G in ((D.Msigma, M.Msigma), (D.Mtau, M.Mtau)):
        assert X.data.tobytes() == matpow(G, p - 1).transpose().data.tobytes()
    W = km.fixed_space(M)
    free = [c for c in range(M.dim) if c not in W.pivots]
    for reps in (np.eye(M.dim, dtype=np.int64)[free], np.eye(M.dim, dtype=np.int64)[free[::-1]]):
        Q, P = km.quotient(M, W, reps=reps)
        R = Mat(M.ctx, reps.T.copy())
        for X, G in ((Q.Msigma, M.Msigma), (Q.Mtau, M.Mtau)):
            assert X.data.tobytes() == (P @ G @ R).data.tobytes()


def test_full_check_on_every_derived_module_keeps_the_report(monkeypatch, capsys):
    # every derived module of `verify all`, each v_d member among them,
    # passes the order and commute check the public constructor makes, and
    # the report stays byte for byte, at its pinned digest
    argv = ["verify", "all", "--seed", "0"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert hashlib.sha256(plain.encode()).hexdigest() == (
        "bf3415bd45acb4e2314339c277e4575844965d88779842ce9f09fbf9bcb81caa")
    for ctx in list(ff._CTX_LIVE.values()):
        ctx._cache.clear()
    real, forced = km.HModule._derived, []

    def checked(ctx, gens, labels=None, meta=None):
        km.check_actions(ctx, gens)
        forced.append((meta or {}).get("kind"))
        return real(ctx, gens, labels, meta)

    monkeypatch.setattr(km.HModule, "_derived", staticmethod(checked))
    assert main(argv) == 0
    assert capsys.readouterr().out == plain
    # 363 modules at seed 0, 97 of them v_d members and 58 v_dr (295 when
    # v_dr and the Hodge pieces went through the public constructor, 222
    # when each member took its own check)
    assert len(forced) > 280 and forced.count("vd") > 90


def test_dims_only_calls_make_no_inversion(monkeypatch, cold_family_modules):
    M = km.v_dr(C5, 12, C5.gen())
    inversions = []
    real = km.invert

    def counted(A):
        inversions.append(A.rows)
        return real(A)

    monkeypatch.setattr(km, "invert", counted)
    km.end_dim(M), km.hom_dim(M, M), km.profile(M)
    assert inversions == []
    # the first map rebuild inverts the evaluation submatrix once and keeps it
    H = km.hom_space(M, M)
    assert inversions == [M.dim]
    assert km.hom_space(M, M) == H and inversions == [M.dim]
