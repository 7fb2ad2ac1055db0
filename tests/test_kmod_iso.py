"""Isomorphism and indecomposability decision procedures."""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import inspect
import itertools

from repcurve import cli, kmod
from repcurve.errors import ContextMismatch
from repcurve.ff import ctx_new, default_ctx, enumerate_nonprime, find_irreducible
from repcurve.kmod import (HModule, algebra_radical, augmentation_ideal, direct_sum,
                           dual, end_algebra, fixed_space, hom_space, is_indecomposable,
                           is_isomorphic, jordan_scan, module_to_json, profile,
                           regular_module, s_filtration, trivial_module, v_d, v_dr)
from repcurve.linalg import Mat, Subspace, invert, kernel, solve_matrix
from reference import (conjugate, contains, intertwiner_space, matpow, preimage,
                       presented_modules)

C3 = default_ctx(3)
T = C3.gen()


def check_witness(dec, M, N):
    X = dec.witness
    assert X is not None
    assert X @ M.Msigma == N.Msigma @ X
    assert X @ M.Mtau == N.Mtau @ X
    assert invert(X) is not None


def test_witness_check_reads_both_generators():
    # v_d(2, t) and v_d(2, t + 1) share sigma, so the identity intertwines
    # sigma but not tau; a singular map intertwines both and is refused too
    M, N = v_d(C3, 2, T), v_d(C3, 2, T + 1)
    I = Mat.identity(C3, 2)
    assert M.Msigma == N.Msigma and M.Mtau != N.Mtau
    assert kmod._verify_witness(M, M, I)
    assert not kmod._verify_witness(M, N, I)
    assert not kmod._verify_witness(M, M, Mat(C3, np.zeros((2, 2), dtype=np.int64)))


def test_equal_modules_identity_witness():
    M = v_d(C3, 4, T)
    dec = is_isomorphic(M, v_d(C3, 4, T))
    assert dec.verdict == "YES" and dec.method == "equal-matrices"
    check_witness(dec, M, M)


def test_dim_mismatch_short_circuits():
    dec = is_isomorphic(v_d(C3, 4, T), v_d(C3, 5, T))
    assert dec.verdict == "NO" and dec.method == "dim-mismatch"


def test_different_twists_not_isomorphic():
    dec = is_isomorphic(v_d(C3, 5, T), v_d(C3, 5, T + 1))
    assert dec.verdict == "NO"
    assert dec.witness is None


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        is_isomorphic(v_d(C3, 2, T), v_d(default_ctx(5), 2, default_ctx(5).gen()))


@pytest.mark.parametrize("d", range(0, 9))
def test_vdr_duality_with_verified_witness(d):
    A = dual(v_dr(C3, d, T))
    B = v_dr(C3, 8 - d, T)
    dec = is_isomorphic(A, B)
    assert dec.verdict == "YES"
    check_witness(dec, A, B)


def test_max_members_are_group_algebra_objects():
    dec = is_isomorphic(v_d(C3, 9, T), regular_module(C3))
    assert dec.verdict == "YES"
    check_witness(dec, v_d(C3, 9, T), regular_module(C3))
    dec = is_isomorphic(v_d(C3, 8, T), augmentation_ideal(C3))
    assert dec.verdict == "YES"


def test_digit_class_collapse():
    # same leading base-3 digit of d gives the same quotient member
    dec = is_isomorphic(v_dr(C3, 3, T), v_dr(C3, 5, T))
    assert dec.verdict == "YES"
    check_witness(dec, v_dr(C3, 3, T), v_dr(C3, 5, T))
    assert is_isomorphic(v_dr(C3, 2, T), v_dr(C3, 5, T)).verdict == "NO"


def test_hom_and_end_dimensions():
    M = v_d(C3, 5, T)
    assert hom_space(M, M).dim == end_algebra(M)[0].dim
    # maps between distinct twists factor through trivial layers,
    # so the hom dim drops below the endomorphism dim
    for d in (2, 5):
        A, B = v_d(C3, d, T), v_d(C3, d, T + 1)
        assert hom_space(A, B).dim < hom_space(A, A).dim
    assert hom_space(v_d(C3, 2, T), v_d(C3, 2, T + 1)).dim == 1


def test_isomorphism_is_seed_stable():
    # no decision reads a seed: a repeated call, and a call on modules
    # built afresh, give the same witness
    A = dual(v_dr(C3, 4, T))
    B = v_dr(C3, 4, T)
    d1 = is_isomorphic(A, B)
    d2 = is_isomorphic(A, B)
    assert d1.verdict == d2.verdict == "YES" and d1.method == "hom-basis"
    assert d1.witness == d2.witness
    C3._cache.clear()
    assert is_isomorphic(dual(v_dr(C3, 4, T)), v_dr(C3, 4, T)).witness == d1.witness


# sha256 of `query profile` on v_dr(5, 7, t), v_dr(5, 12, t), v_dr(3, 4, t)
# and v_d(3, 5, t), recorded while the decision still compared the Jordan
# multiset; the duals and twists below print the same bytes
PROFILE_DIGESTS = {
    "vdr5-7": "211c075060a3ec1e0d530fd90d9d571fa69596d92bbe73d1e552874a3092958d",
    "vdr5-12": "fa38c0aa90f2ed310b67a74aabac7dd956b3a84d010cd8627aa0982cfdf76a0b",
    "vdr3-4": "6d1288e168c474618aa7e1a398b487001e4db5f397e651e903627fda0921edff",
    "vd3-5": "3e50cfd8502ca50a2915f433300b14b5d1aa9407b239279188d46ddc2103d320",
}


def test_filtration_separated_pair_skips_end_and_scan(capsys, tmp_path):
    # no decision computes the Jordan scan, whichever method decides; the
    # top base-5 digits of 7 and 12 differ, and so do the filtrations, so
    # that pair computes no End either
    C5 = default_ctx(5)
    M, N = v_dr(C5, 7, C5.gen()), v_dr(C5, 12, C5.gen())
    pairs = [(M, N, "NO", "profile-mismatch", ("vdr5-7", "vdr5-12")),
             (dual(v_dr(C3, 4, T)), v_dr(C3, 4, T), "YES", "hom-basis",
              ("vdr3-4", "vdr3-4")),
             (v_d(C3, 5, T), v_d(C3, 5, T + 1), "NO", "hom-dim-mismatch",
              ("vd3-5", "vd3-5"))]
    for A, B, verdict, method, _ in pairs:
        dec = is_isomorphic(A, B)
        assert (dec.verdict, dec.method) == (verdict, method)
        for X in (A, B):
            assert ("jordan_scan",) not in X._cache
            assert method != "profile-mismatch" or ("_hom_solve", X) not in X._cache
    assert [s.dim for s in s_filtration(M)] != [s.dim for s in s_filtration(N)]
    # profile() and `query profile` still report the Jordan multiset
    for A, B, _, _, names in pairs:
        for X, name in zip((A, B), names):
            assert profile(X).jordan_multiset == tuple(sorted(t for _, t in jordan_scan(X)))
            path = tmp_path / "m.json"
            path.write_text(json.dumps(module_to_json(X)))
            assert cli.main(["query", "profile", str(path)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[name]


@pytest.mark.parametrize("build", [
    lambda: v_dr(default_ctx(5), 12, default_ctx(5).gen()),
    lambda: v_d(C3, 5, T),
    lambda: direct_sum(v_d(C3, 2, T), dual(v_dr(C3, 4, T))),
    lambda: trivial_module(C3),
], ids=["vdr5-12", "vd3-5", "sum", "trivial"])
def test_query_profile_prints_the_deep_copy_bytes(capsys, tmp_path, build):
    # Profile.to_json is a shallow dict of the fields; its JSON text is
    # that of dataclasses.asdict, which deep-copies the Jordan multiset
    M = build()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_json(M)))
    assert cli.main(["query", "profile", str(path)]) == 0
    out = capsys.readouterr().out
    want = json.dumps(dataclasses.asdict(profile(M)), sort_keys=True, indent=2) + "\n"
    assert out == want


# v_d(2, t) + v_d(6, t) and v_d(2, t) + v_d(6, 1 + t) agree in dim,
# filtration dims, fixed dim and End dim; only their Jordan multisets
# differ (the jump points of the two summands meet in the first sum).
JORDAN_ONLY_PAIR = (direct_sum(v_d(C3, 2, T), v_d(C3, 6, T)),
                    direct_sum(v_d(C3, 2, T), v_d(C3, 6, T + 1)))


def test_pair_only_the_jordan_multiset_separates_gets_a_hom_certificate():
    # the decision does not compare the multiset, so step 4 answers
    A, B = JORDAN_ONLY_PAIR
    pa, pb = profile(A), profile(B)
    assert (pa.filtration_dims, pa.fixed_dim, pa.end_dim) == \
        (pb.filtration_dims, pb.fixed_dim, pb.end_dim) == ((2, 5, 7, 8), 2, 12)
    assert pa.jordan_multiset != pb.jordan_multiset
    dec = is_isomorphic(A, B)
    assert (dec.verdict, dec.method) == ("NO", "hom-dim-mismatch")
    assert dec.detail == {"hom": [10, 10], "end": [12, 12]}


BETAS = enumerate_nonprime(C3)


@st.composite
def modules(draw, dim):
    """v_d, v_dr (dim 8 only) or a sum of two v_d of dimension dim, then
    perhaps dualized and perhaps conjugated into a random basis."""
    beta = draw(st.sampled_from(BETAS))
    kind = draw(st.sampled_from(("vd", "vdr", "sum") if dim == 8 else ("vd", "sum")))
    if kind == "vd":
        M = v_d(C3, dim, beta)
    elif kind == "vdr":
        M = v_dr(C3, draw(st.integers(0, 8)), beta)
    else:
        a = draw(st.integers(1, dim - 1))
        M = direct_sum(v_d(C3, a, beta), v_d(C3, dim - a, draw(st.sampled_from(BETAS))))
    if draw(st.booleans()):
        M = dual(M)
    if draw(st.booleans()):
        M = conjugate(M, random.Random(draw(st.integers(0, 2**32))))
    return M


@st.composite
def equal_dim_pairs(draw):
    dim = draw(st.sampled_from((4, 8)))
    M = draw(modules(dim))
    if draw(st.integers(0, 3)) == 0:
        return M, conjugate(M, random.Random(draw(st.integers(0, 2**32))))
    return M, draw(modules(dim))


def reference_isomorphic(M, N, rng) -> bool:
    """Whether one of 64 random elements of Hom(M, N), taken from the
    Kronecker-product solve, is invertible.  When M and N are isomorphic
    with at most two indecomposable summands, more than 3/4 of Hom(M, N)
    is invertible over F_9, so an isomorphism is missed with odds below
    1e-38."""
    H = intertwiner_space([M.Msigma, M.Mtau], [N.Msigma, N.Mtau])
    for _ in range(64):
        X = np.zeros(H.ambient, dtype=np.int64)
        for row in H.basis:
            X = C3.add[X, C3.mul[rng.randrange(C3.q), row]]
        if invert(Mat(C3, X.reshape(N.dim, M.dim))) is not None:
            return True
    return False


def decision_invariants(M):
    return kmod.filtration_dims(M), kmod.end_dim(M)


@settings(max_examples=40, deadline=None)
@given(equal_dim_pairs(), st.integers(0, 2**32))
@example(JORDAN_ONLY_PAIR, 0)
def test_iso_method_and_verdict_match_references(pair, seed):
    # step 3 answers exactly when the decision's invariants differ; a
    # difference in the Jordan multiset alone is left to steps 4 and 5
    M, N = pair
    dec = is_isomorphic(M, N)
    same_matrices = M.Msigma == N.Msigma and M.Mtau == N.Mtau
    assert (dec.method == "profile-mismatch") == (
        decision_invariants(M) != decision_invariants(N) and not same_matrices)
    assert dec.isomorphic == reference_isomorphic(M, N, random.Random(seed))
    if dec.isomorphic:
        check_witness(dec, M, N)


@pytest.mark.parametrize("d", range(1, 10))
def test_vd_indecomposable_via_fixed_space(d):
    dec = is_indecomposable(v_d(C3, d, T))
    assert dec.verdict == "INDECOMPOSABLE" and dec.certificate == "T1"


@pytest.mark.parametrize("d", range(0, 10))
def test_vdr_indecomposable_via_radical(d):
    # every quotient member has a local End through End/J, read from the
    # split directly where the fixed space has dim 1 and T1 answers first
    M = v_dr(C3, d, T)
    dims, split = kmod._end_split(M)
    assert split is None and dims["semisimple_dim"] == 1
    check_local(M, kmod.IndecDecision("INDECOMPOSABLE", "T3", detail=dims))
    dec = is_indecomposable(M)
    assert dec.indecomposable and dec.certificate == ("T1" if fixed_space(M).dim == 1 else "T3")


def check_split(M, dec):
    """The T2 certificate is JSON data: two bases, as rows of element
    texts, of complementary sigma- and tau-invariant subspaces."""
    assert dec.verdict == "DECOMPOSABLE" and dec.certificate == "T2"
    assert json.loads(json.dumps(dec.to_json())) == dec.to_json()
    ker = Subspace.from_rows(M.ctx, M.dim, Mat.from_rows(M.ctx, dec.detail["kernel"]).data)
    im = Subspace.from_rows(M.ctx, M.dim, Mat.from_rows(M.ctx, dec.detail["image"]).data)
    assert [ker.dim, im.dim] == dec.detail["split_dims"]
    assert 0 < ker.dim < M.dim
    assert Subspace.from_rows(M.ctx, M.dim, np.vstack([ker.basis, im.basis])).dim == M.dim
    for W in (ker, im):
        for g in (M.Msigma, M.Mtau):
            assert W.reduce_rows((g @ Mat(M.ctx, W.basis.T.copy())).data.T)[1].all()


def socle_image(M):
    """(soc M, the restriction of each End basis element to it as a
    row-major s x s matrix, their span E', J(E') in E' coordinates).  The
    socle is the joint kernel of sigma - 1 and tau - 1, and each
    restriction is solved from soc^T A = X soc^T."""
    ctx = M.ctx
    I = Mat.identity(ctx, M.dim).data
    soc = kernel(Mat(ctx, np.vstack([ctx.sub[M.Msigma.data, I], ctx.sub[M.Mtau.data, I]])))
    s = soc.dim
    S = Mat(ctx, soc.basis.T.copy())
    _, mats = end_algebra(M)
    R = np.array([solve_matrix(S, Mat(ctx, X) @ S).data.reshape(-1) for X in mats],
                 dtype=np.int64).reshape(len(mats), s * s)
    image = Subspace.from_rows(ctx, s * s, R)
    rad = algebra_radical(ctx, image.basis.reshape(image.dim, s, s))
    return soc, R, image, rad


def top_dim(M) -> int:
    """dim M / (sigma0 M + tau0 M): the number of generators of M."""
    I = Mat.identity(M.ctx, M.dim).data
    moved = np.hstack([M.ctx.sub[M.Msigma.data, I], M.ctx.sub[M.Mtau.data, I]]).T
    return M.dim - Subspace.from_rows(M.ctx, M.dim, moved).dim


PRESENTED = presented_modules()


@pytest.mark.parametrize("name", list(PRESENTED))
def test_end_of_cyclic_and_cocyclic_modules_matches_the_solve(name):
    # End(M) of a cyclic or cocyclic M is local of dim dim M, with the
    # scalars as its socle image, and is read without a solve; any other
    # module solves End.  The general path is run here on the same module
    M = PRESENTED[name]()
    e, (dims, split) = kmod.end_dim(M), kmod._end_split(M)
    solved = ("_hom_solve", M) in M._cache
    soc, _, image, rad = socle_image(M)
    g, k = kmod._hom_solve(M, M).dim, image.dim - rad.dim
    assert e == g
    assert dims == {"end_dim": g, "radical_dim": g - k, "semisimple_dim": k,
                    "socle_dim": soc.dim, "socle_image_dim": image.dim,
                    "socle_image_radical_dim": rad.dim}
    assert solved == (top_dim(M) >= 2 and soc.dim >= 2)
    assert solved or (split is None and g == M.dim)


def check_local(M, dec):
    """The T3 / T3-division detail, recomputed from the module: the dims
    of soc M, E' and J(E').  J(E') is confirmed as the radical: it is a
    two-sided ideal with J^s = 0, and every nonzero element of the span of
    the E' basis elements off its pivots is invertible, so E'/J(E') is a
    division algebra."""
    assert dec.verdict == "INDECOMPOSABLE" and dec.certificate in ("T3", "T3-division")
    ctx = M.ctx
    soc, _, image, rad = socle_image(M)
    s, e = soc.dim, image.dim - rad.dim
    d = dec.detail
    assert (d["socle_dim"], d["socle_image_dim"], d["socle_image_radical_dim"]) == \
        (s, image.dim, rad.dim)
    assert (d["semisimple_dim"], d["radical_dim"]) == (e, d["end_dim"] - e)
    assert (e == 1) == (dec.certificate == "T3")
    E = [Mat(ctx, row.reshape(s, s)) for row in image.basis]

    def combine(coeffs, mats):
        out = np.zeros((s, s), dtype=np.int64)
        for c, X in zip(coeffs, mats):
            out = ctx.add[out, ctx.mul[int(c), X.data]]
        return Mat(ctx, out)

    J = [combine(row, E) for row in rad.basis]
    span = Subspace.from_rows(ctx, s * s, np.array([X.data.reshape(-1) for X in J],
                                                   dtype=np.int64).reshape(len(J), s * s))
    assert all(contains(span, (X @ Y).data.reshape(-1)) and contains(span, (Y @ X).data.reshape(-1))
               for X in E for Y in J)
    power = J  # a basis of J^k, k = 1 .. s
    for _ in range(s - 1):
        prods = [(X @ Y).data.reshape(-1) for X in power for Y in J]
        rows = Subspace.from_rows(ctx, s * s, np.array(prods, dtype=np.int64).reshape(-1, s * s))
        power = [Mat(ctx, row.reshape(s, s)) for row in rows.basis]
    assert all(not X.data.any() for X in power)
    reps = [E[k] for k in range(image.dim) if k not in rad.pivots.tolist()]
    for coeffs in itertools.product(range(ctx.q), repeat=e):
        if any(coeffs):
            assert invert(combine(coeffs, reps)) is not None


def test_decomposable_detected_with_split():
    M = direct_sum(v_d(C3, 2, T), trivial_module(C3))
    check_split(M, is_indecomposable(M))
    N = direct_sum(v_d(C3, 3, T), v_d(C3, 3, T))
    check_split(N, is_indecomposable(N))


def test_decomposable_pair_of_twists():
    M = direct_sum(v_d(C3, 2, T), v_d(C3, 2, T + 1))
    assert is_indecomposable(M).verdict == "DECOMPOSABLE"


def test_decisions_take_no_seed():
    for fn in (is_isomorphic, is_indecomposable):
        assert not {"seed", "trials"} & set(inspect.signature(fn).parameters)
    assert not hasattr(kmod, "random") and not hasattr(kmod, "_combine")


def test_krull_schmidt_assembles_a_witness():
    # neither module is local and no Hom basis element is invertible, so
    # the summands are matched: v_d(2, t) with v_d(2, t), trivial with trivial
    M = direct_sum(v_d(C3, 2, T), trivial_module(C3))
    N = conjugate(direct_sum(trivial_module(C3), v_d(C3, 2, T)), random.Random(1))
    dec = is_isomorphic(M, N)
    assert (dec.verdict, dec.method) == ("YES", "krull-schmidt")
    assert dec.detail == {"summand_dims": [[1, 2], [1, 2]]}
    check_witness(dec, M, N)


def test_krull_schmidt_refuses_a_pair_the_invariants_miss():
    # same profile and the same four Hom/End dims, but the twists sit on
    # different summands: v_d(4, t) + v_d(5, t+1)* against v_d(4, t+1) + v_d(5, t)*
    M = direct_sum(v_d(C3, 4, T), dual(v_d(C3, 5, T + 1)))
    N = direct_sum(v_d(C3, 4, T + 1), dual(v_d(C3, 5, T)))
    assert profile(M) == profile(N)
    dec = is_isomorphic(M, N)
    assert (dec.verdict, dec.method) == ("NO", "krull-schmidt")
    assert dec.witness is None
    assert not reference_isomorphic(M, N, random.Random(0))


def restrict_to_prime_field(M):
    """M over F_9 read as a module over F_3 of twice the dimension: each
    entry x becomes the 2 x 2 matrix of multiplication by x in the basis
    (1, t)."""
    ctx = M.ctx
    F3 = ctx_new(3, 1, find_irreducible(3, 1))

    def blocks(A):
        n = A.rows
        out = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                x = int(A.data[i, j])
                out[2 * i:2 * i + 2, 2 * j] = ctx.decode(x)
                out[2 * i:2 * i + 2, 2 * j + 1] = ctx.decode(int(ctx.mul[x, T.idx]))
        return Mat(F3, out)

    return HModule(F3, blocks(M.Msigma), blocks(M.Mtau))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_division_quotient_on_restricted_scalars(d):
    # End/J of the restriction is F_9, a two-dimensional division algebra
    # over F_3: none of its four projective points splits
    M = restrict_to_prime_field(v_d(C3, d, T))
    assert fixed_space(M).dim == 2
    dec = is_indecomposable(M)
    assert (dec.verdict, dec.certificate) == ("INDECOMPOSABLE", "T3-division")
    assert dec.detail["semisimple_dim"] == 2 and dec.detail["simple_factors"] == 1
    assert end_radical_reference(M) == "INDECOMPOSABLE"


@pytest.mark.parametrize("d", [2, 3, 5])
def test_division_quotient_socle_detail(d):
    # E' = End(soc M) restricted to F_9 acting on F_3^2: J(E') = 0, e = 2
    M = restrict_to_prime_field(v_d(C3, d, T))
    dec = is_indecomposable(M)
    assert (dec.detail["socle_image_dim"], dec.detail["socle_image_radical_dim"]) == (2, 0)
    check_local(M, dec)


def end_radical_reference(M) -> str:
    """The End/J decision the split scan replaced: End/J one-dimensional,
    else its commutativity, then the count of simple factors as the fixed
    space of the q-power map, computed prime-field-linearly."""
    ctx = M.ctx
    Hend, mats = end_algebra(M)
    rad = algebra_radical(ctx, mats)
    e = Hend.dim - rad.dim
    if e == 1:
        return "INDECOMPOSABLE"
    pivots = rad.pivots.tolist()
    free = [c for c in range(Hend.dim) if c not in pivots]
    reps = [Mat(ctx, mats[c]) for c in free]  # valid complement: coords e_c are independent mod rad

    def coords_mod_rad(X: Mat):
        full = Hend.reduce(X.data.reshape(-1))
        if full is None:
            return None
        red = full.copy()
        for j, pc in enumerate(pivots):
            c = int(red[pc])
            if c:
                red = ctx.sub[red, ctx.mul[c, rad.basis[j]]]
        return red[free]

    # commutativity of the semisimple quotient
    commutative = True
    for i1 in range(e):
        for i2 in range(i1 + 1, e):
            comm = Mat(ctx, ctx.sub[(reps[i1] @ reps[i2]).data, (reps[i2] @ reps[i1]).data])
            cr = coords_mod_rad(comm)
            assert cr is not None
            if cr.any():
                commutative = False
                break
        if not commutative:
            break
    if not commutative:
        return "DECOMPOSABLE"
    # commutative semisimple: count simple factors as the fixed space of
    # the q-power map, computed prime-field-linearly
    pctx = ctx_new(ctx.p, 1, find_irreducible(ctx.p, 1))
    nn = ctx.n
    dimFp = e * nn
    T = np.zeros((dimFp, dimFp), dtype=np.int64)
    for i1 in range(e):
        zq = matpow(reps[i1], ctx.q)
        cq = coords_mod_rad(zq)
        c1 = coords_mod_rad(reps[i1])
        assert cq is not None and c1 is not None
        for j in range(nn):
            tj = ctx.encode([0] * j + [1])
            col_q = ctx.mul[ctx.pow_idx(tj, ctx.q), cq]
            col_1 = ctx.mul[tj, c1]
            col = ctx.sub[col_q, col_1]
            # expand the F_q-vector col into prime-field digits
            for k in range(e):
                dg = ctx.decode(int(col[k]))
                for j2 in range(nn):
                    T[k * nn + j2, i1 * nn + j] = dg[j2]
    KF = kernel(Mat(pctx, T))
    assert KF.dim % nn == 0
    r = KF.dim // nn
    return "INDECOMPOSABLE" if r == 1 else "DECOMPOSABLE"


C5 = default_ctx(5)


@st.composite
def scan_modules(draw):
    """At p = 3 or 5: v_d, v_dr, or a sum A + B, A + A or A + A + A of
    small v_d (and v_dr at p = 3), each perhaps dualized, then perhaps
    conjugated into a random basis."""
    ctx = draw(st.sampled_from((C3, C5)))
    betas = enumerate_nonprime(ctx)

    def small():
        beta = draw(st.sampled_from(betas))
        if ctx.p == 3 and draw(st.booleans()):
            A = v_dr(ctx, draw(st.integers(0, 9)), beta)
        else:
            A = v_d(ctx, draw(st.integers(1, 5 if ctx.p == 3 else 4)), beta)
        return dual(A) if draw(st.booleans()) else A

    kind = draw(st.sampled_from(("vd", "vdr", "sum", "square", "cube")))
    if kind == "vd":
        M = v_d(ctx, draw(st.integers(1, ctx.p * ctx.p)), draw(st.sampled_from(betas)))
    elif kind == "vdr":
        d = draw(st.integers(0, 9) if ctx.p == 3 else st.sampled_from((5, 7, 12)))
        M = v_dr(ctx, d, draw(st.sampled_from(betas)))
    elif kind == "sum":
        M = direct_sum(small(), small())
    else:
        A = small()
        M = direct_sum(A, A)
        if kind == "cube":
            M = direct_sum(M, A if A.dim <= 4 else trivial_module(ctx))
    if draw(st.booleans()):
        M = dual(M)
    if draw(st.booleans()):
        M = conjugate(M, random.Random(draw(st.integers(0, 2**32))))
    return M


@settings(max_examples=40, deadline=None)
@given(scan_modules())
def test_split_scan_matches_end_radical_reference(M):
    dec = is_indecomposable(M)
    assert dec.verdict == end_radical_reference(M)
    if not dec.indecomposable:
        check_split(M, dec)


@settings(max_examples=40, deadline=None)
@given(scan_modules())
def test_socle_image_radical_matches_end_radical(M):
    # J(End) is the preimage of J(E') under the restriction to the socle
    ctx = M.ctx
    soc, R, image, rad = socle_image(M)
    s = soc.dim
    assert image.dim <= s * s
    Hend, mats = end_algebra(M)
    full = algebra_radical(ctx, mats)
    J = (Subspace.from_rows(ctx, s * s, (Mat(ctx, rad.basis) @ Mat(ctx, image.basis)).data)
         if rad.dim else Subspace.zero(ctx, s * s))
    assert preimage(Mat(ctx, R.T.copy()), J) == full
    e = image.dim - rad.dim
    assert e == Hend.dim - full.dim == kmod._end_split(M)[0]["semisimple_dim"]
    # the End/J split is read directly, as T1 may answer first
    dims, split = kmod._end_split(M)
    dec = is_indecomposable(M)
    if split is None:
        cert = "T3" if e == 1 else "T3-division"
        check_local(M, kmod.IndecDecision("INDECOMPOSABLE", cert, detail=dims))
        assert dec.indecomposable
    else:
        check_split(M, dec)


@pytest.mark.parametrize("d", [9, 17])
def test_vdr_indecomposable_at_p7(d):
    C7 = default_ctx(7)
    M = v_dr(C7, d, C7.gen())
    assert M.dim == 48
    dec = is_indecomposable(M)
    assert (dec.verdict, dec.certificate) == ("INDECOMPOSABLE", "T3")
    assert dec.detail["socle_dim"] == 2
    check_local(M, dec)
